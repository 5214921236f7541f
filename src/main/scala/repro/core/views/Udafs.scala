package repro.core.views

import org.apache.spark.sql.{Encoder, Encoders, SparkSession}
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions.udaf

import repro.core.Types.SeriesAgg

/** The paper's simple-aggregate UDAFs on the Segment View (Section VI-B):
  * `COUNT_S`, `MIN_S`, `MAX_S`, `SUM_S`, `AVG_S`, each consuming the view's
  * model columns ([[SegArgsSql]]) and computing the aggregate *on the
  * model* — constant time per segment for constant/linear model types,
  * linear in the segment length only for lossless ones. Multi-dimensional
  * aggregates reduce to these via GROUP BY on the view's dimension columns.
  */
object Udafs {

  /** One Segment View row's model columns, in [[SegmentView.SegFields]]
    * order (field order matters): the `*_S` arguments and the input of the
    * `CUBE_*` UDF.
    */
  final case class Seg(
      start_time: Long,
      end_time: Long,
      si: Int,
      mid: Int,
      params: Array[Byte],
      sidx: Int,
      nseries: Int,
      scaling: Double,
  ) {
    /** This series' aggregate over the whole segment, scaling applied. */
    def seriesAgg: SeriesAgg =
      Udafs.scale(SegmentEval.aggregates(mid, start_time, end_time, si, params, nseries)(sidx),
                  scaling)

    /** This series' `(bucket, count, sum, min, max)` per bucket of
      * `interval`, scaling applied.
      */
    def buckets(interval: TimeCube.Interval): Seq[(Long, Long, Double, Double, Double)] = {
      val b = SegmentEval.buckets(mid, start_time, end_time, si, params, nseries, interval)
      b.starts.indices.map { i =>
        val a = Udafs.scale(b.aggs(i)(sidx), scaling)
        (b.starts(i), a.count, a.sum, a.min, a.max)
      }
    }
  }

  private[views] def scale(a: SeriesAgg, scaling: Double): SeriesAgg =
    if (scaling == 1.0) a
    else if (scaling >= 0)
      SeriesAgg(a.count, a.sum * scaling, a.min * scaling, a.max * scaling)
    else
      SeriesAgg(a.count, a.sum * scaling, a.max * scaling, a.min * scaling)

  private implicit val aggEnc: Encoder[SeriesAgg] = Encoders.product[SeriesAgg]

  /** Shared reduction over [[SeriesAgg]]; `finish` selects the statistic. */
  private abstract class SegAggregator[OUT: Encoder] extends Aggregator[Seg, SeriesAgg, OUT] {
    override def zero: SeriesAgg                             = SeriesAgg.empty
    override def reduce(b: SeriesAgg, s: Seg): SeriesAgg     = b.merge(s.seriesAgg)
    override def merge(b1: SeriesAgg, b2: SeriesAgg): SeriesAgg = b1.merge(b2)
    override def bufferEncoder: Encoder[SeriesAgg]           = aggEnc
    override def outputEncoder: Encoder[OUT]                 = implicitly[Encoder[OUT]]
  }

  val countS: Aggregator[Seg, SeriesAgg, Long] = new SegAggregator[Long]()(Encoders.scalaLong) {
    override def finish(b: SeriesAgg): Long = b.count
  }
  val sumS: Aggregator[Seg, SeriesAgg, Double] = new SegAggregator[Double]()(Encoders.scalaDouble) {
    override def finish(b: SeriesAgg): Double = b.sum
  }
  val minS: Aggregator[Seg, SeriesAgg, Double] = new SegAggregator[Double]()(Encoders.scalaDouble) {
    override def finish(b: SeriesAgg): Double = if (b.count == 0) Double.NaN else b.min
  }
  val maxS: Aggregator[Seg, SeriesAgg, Double] = new SegAggregator[Double]()(Encoders.scalaDouble) {
    override def finish(b: SeriesAgg): Double = if (b.count == 0) Double.NaN else b.max
  }
  val avgS: Aggregator[Seg, SeriesAgg, Double] = new SegAggregator[Double]()(Encoders.scalaDouble) {
    override def finish(b: SeriesAgg): Double = if (b.count == 0) Double.NaN else b.sum / b.count
  }

  /** The argument list the `*_S` UDAFs take in SQL: Spark flattens the
    * product input encoder into one parameter per field, so calls look like
    * `SUM_S(start_time, end_time, si, mid, params, sidx, nseries, scaling)`
    * — i.e. `SUM_S($SegArgsSql)` on the Segment View.
    */
  val SegArgsSql: String = SegmentView.SegFields.mkString(", ")

  /** Register every `*_S` UDAF in the session's function registry so they are
    * usable from SQL on the Segment View.
    */
  def register(spark: SparkSession): Unit = {
    spark.udf.register("COUNT_S", udaf(countS))
    spark.udf.register("SUM_S", udaf(sumS))
    spark.udf.register("MIN_S", udaf(minS))
    spark.udf.register("MAX_S", udaf(maxS))
    spark.udf.register("AVG_S", udaf(avgS))
  }
}
