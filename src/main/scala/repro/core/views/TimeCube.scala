package repro.core.views

import java.time.{Instant, ZoneOffset, ZonedDateTime}
import java.time.temporal.ChronoUnit

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Aggregates in the time dimension computed directly on models — the
  * paper's `CUBE_<AGGREGATE>_<INTERVAL>` UDAFs (Section VI-C, Algorithm 3).
  *
  * Each segment is cut at the aggregation-interval boundaries between its
  * start and end time; for each piece the model's closed-form range aggregate
  * is taken (O(#intervals) per segment for constant/linear models, never
  * O(#points)), partials are shuffled and merged per bucket, and the final
  * statistic is computed from the merged partials (Iterate/Finalize).
  */
object TimeCube {

  /** Supported roll-up levels in the time dimension (UTC calendar). */
  sealed abstract class Interval extends Serializable {
    /** Start of the interval containing `ts` (epoch ms). */
    def floor(ts: Long): Long
    /** Start of the interval after the one starting at `bucketStart`. */
    def next(bucketStart: Long): Long
  }

  case object Hour extends Interval {
    override def floor(ts: Long): Long       = ts - Math.floorMod(ts, 3600000L)
    override def next(bucketStart: Long): Long = bucketStart + 3600000L
  }
  case object Day extends Interval {
    override def floor(ts: Long): Long       = ts - Math.floorMod(ts, 86400000L)
    override def next(bucketStart: Long): Long = bucketStart + 86400000L
  }
  case object Month extends Interval {
    override def floor(ts: Long): Long =
      ZonedDateTime.ofInstant(Instant.ofEpochMilli(ts), ZoneOffset.UTC)
        .truncatedTo(ChronoUnit.DAYS).withDayOfMonth(1).toInstant.toEpochMilli
    override def next(bucketStart: Long): Long =
      ZonedDateTime.ofInstant(Instant.ofEpochMilli(bucketStart), ZoneOffset.UTC)
        .plusMonths(1).toInstant.toEpochMilli
  }

  /** Per-(row, bucket) partial aggregates of a Segment View: the input
    * columns minus the model internals, plus `(bucket, cnt, psum, pmin,
    * pmax)`. Callers GROUP BY `bucket` and any dimension columns and merge
    * with `sum(cnt), sum(psum), min(pmin), max(pmax)` (Algorithm 3's Iterate
    * step, vectorized over segments).
    */
  def partials(segView: DataFrame, interval: Interval): DataFrame =
    segView
      .withColumn("b", explode(SegmentView.segUdf(_.buckets(interval))))
      .select((SegmentView.passThrough(segView).map(col) :+
        col("b._1").as("bucket") :+ col("b._2").as("cnt") :+
        col("b._3").as("psum") :+ col("b._4").as("pmin") :+ col("b._5").as("pmax")): _*)

  /** The paper's `CUBE_<AGG>_<INTERVAL>` as a DataFrame transformation:
    * aggregate per time bucket (and any `groupCols`, e.g. `tid` or dimension
    * columns), returning `(groupCols..., bucket, value)`.
    *
    * @param agg one of `count`, `sum`, `avg`, `min`, `max`
    */
  def cube(segView: DataFrame, interval: Interval, agg: String,
           groupCols: Seq[String] = Seq("tid")): DataFrame = {
    val p = partials(segView, interval)
    val grouped = p.groupBy((groupCols :+ "bucket").map(col): _*).agg(
      sum("cnt").as("cnt"), sum("psum").as("psum"),
      min("pmin").as("pmin"), max("pmax").as("pmax"))
    val value = agg.toLowerCase match {
      case "count" => col("cnt").cast("double")
      case "sum"   => col("psum")
      case "avg"   => col("psum") / col("cnt")
      case "min"   => col("pmin")
      case "max"   => col("pmax")
      case other   => throw new IllegalArgumentException(s"unknown aggregate $other")
    }
    grouped.select((groupCols.map(col) :+ col("bucket") :+ value.as("value")): _*)
  }
}
