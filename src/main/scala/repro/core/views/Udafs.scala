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

  /** The model columns of a Segment View row: the `*_S` arguments and the
    * input of the `CUBE_*` UDF.
    */
  private[views] val SegFields: Seq[String] =
    Seq("start_time", "end_time", "si", "mid", "params", "sidx", "nseries", "scaling")

  /** The argument list the `*_S` UDAFs take in SQL: Spark flattens the
    * product input encoder into one parameter per field, so calls look like
    * `SUM_S(start_time, end_time, si, mid, params, sidx, nseries, scaling)`
    * — i.e. `SUM_S($SegArgsSql)` on the Segment View.
    */
  val SegArgsSql: String = SegFields.mkString(", ")

  /** One Segment View row's model columns, in [[SegFields]] order (field
    * order matters).
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
    /** This series' `(bucket, count, sum, min, max)` per bucket of
      * `interval`, scaling applied.
      */
    def buckets(interval: TimeCube.Interval): Seq[(Long, Long, Double, Double, Double)] = {
      val b = SegmentEval.buckets(mid, start_time, end_time, si, params, nseries, interval)
      b.starts.indices.map { i =>
        val a = scale(b.aggs(i)(sidx))
        (b.starts(i), a.count, a.sum, a.min, a.max)
      }
    }

    /** This series' aggregate over the whole segment, scaling applied. */
    def seriesAgg: SeriesAgg =
      scale(SegmentEval.buckets(mid, start_time, end_time, si, params, nseries, TimeCube.Whole).aggs(0)(sidx))

    private def scale(a: SeriesAgg): SeriesAgg =
      if (scaling == 1.0) a
      else if (scaling >= 0)
        SeriesAgg(a.count, a.sum * scaling, a.min * scaling, a.max * scaling)
      else
        SeriesAgg(a.count, a.sum * scaling, a.max * scaling, a.min * scaling)
  }

  private val aggEncoder: Encoder[SeriesAgg] = Encoders.product[SeriesAgg]

  /** A `*_S` UDAF: merges its rows' [[Seg.seriesAgg]]s, then `finishWith`
    * selects the statistic.
    */
  private final class SegAggregator[OUT](finishWith: SeriesAgg => OUT)(implicit out: Encoder[OUT])
      extends Aggregator[Seg, SeriesAgg, OUT] {
    override def zero: SeriesAgg                                = SeriesAgg.empty
    override def reduce(b: SeriesAgg, s: Seg): SeriesAgg        = b.merge(s.seriesAgg)
    override def merge(b1: SeriesAgg, b2: SeriesAgg): SeriesAgg = b1.merge(b2)
    override def finish(b: SeriesAgg): OUT                      = finishWith(b)
    override def bufferEncoder: Encoder[SeriesAgg]              = aggEncoder
    override def outputEncoder: Encoder[OUT]                    = out
  }

  /** Register every `*_S` UDAF in the session's function registry so they are
    * usable from SQL on the Segment View.
    */
  def register(spark: SparkSession): Unit = {
    implicit val double: Encoder[Double] = Encoders.scalaDouble
    Seq[(String, Aggregator[Seg, SeriesAgg, _])](
      "COUNT_S" -> new SegAggregator(_.count)(Encoders.scalaLong),
      "SUM_S"   -> new SegAggregator(_.sum),
      "MIN_S"   -> new SegAggregator(b => if (b.count == 0) Double.NaN else b.min),
      "MAX_S"   -> new SegAggregator(b => if (b.count == 0) Double.NaN else b.max),
      "AVG_S"   -> new SegAggregator(b => if (b.count == 0) Double.NaN else b.sum / b.count),
    ).foreach { case (name, agg) => spark.udf.register(name, udaf(agg)) }
  }
}
