package repro.core.views

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The paper's Data Point View (Section VI-A): every segment's model is
  * evaluated on its timestamp grid to reconstruct the data points within the
  * error bound, schema `(tid, ts, value, <dimension columns>)`. Arbitrary
  * SQL (point/range predicates, GROUP BY, joins) runs on this view; segments
  * are only decompressed when actually scanned (Table I: lazy decompression —
  * here by construction, since reconstruction is a deferred Catalyst
  * transformation over the pushed-down segment scan). Filters on `tid` and
  * on dimension columns pass below the reconstruction to the Segment View's
  * scan, so they reach the segment store; a filter on `ts` cannot, so a time
  * range also needs a segment-overlap filter on the Segment View
  * (`ModelarDB.dataPointView` adds both).
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
}
