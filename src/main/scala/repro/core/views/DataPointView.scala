package repro.core.views

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.Catalog

/** The paper's Data Point View (Section VI-A): every segment's model is
  * evaluated on its timestamp grid to reconstruct the data points within the
  * error bound, schema `(tid, ts, value, <dimension columns>)`. Arbitrary
  * SQL (point/range predicates, GROUP BY, joins) runs on this view; segments
  * are only decompressed when actually scanned (Table I: lazy decompression —
  * here by construction, since reconstruction is a deferred Catalyst
  * transformation over the pushed-down segment scan).
  */
object DataPointView {

  /** Build the Data Point View on top of a [[SegmentView]] DataFrame. Each
    * member row takes its series from [[SegmentEval.values]], so a segment is
    * decoded once for all its members.
    */
  def fromSegmentView(segView: DataFrame): DataFrame = {
    val keep = SegmentView.passThrough(segView)
    segView
      .select((keep ++ Seq("start_time", "si")).map(col) :+
        posexplode(SegmentView.segUdf(_.values)).as(Seq("tick", "value")): _*)
      .select(col("tid") +:
        (col("start_time") + col("tick").cast("long") * col("si")).as("ts") +:
        col("value") +: keep.filterNot(_ == "tid").map(col): _*)
  }

  /** Build the view directly from a store path, optionally restricted to
    * `tids` (rewritten to Gids for push-down) and to points in
    * `[from, to]` — segments overlapping the range are scanned and the
    * reconstructed points re-filtered exactly.
    */
  def apply(
      spark: SparkSession,
      storePath: String,
      catalog: Catalog,
      tids: Option[Seq[Int]] = None,
      timeRange: Option[(Long, Long)] = None,
  ): DataFrame = {
    val base = fromSegmentView(SegmentView(spark, storePath, catalog, tids, timeRange))
    timeRange.fold(base) { case (from, to) =>
      base.filter(col("ts") >= from && col("ts") <= to)
    }
  }
}
