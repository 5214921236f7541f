package repro.core.views

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import scala.reflect.runtime.universe.TypeTag

/** The paper's Segment View (Section VI-A): segments from the group store
  * joined with the denormalised Time Series table, one row per represented
  * time series, schema `(tid, gid, start_time, end_time, si, mid, params,
  * gaps, sidx, nseries, scaling, <dimension columns>)`.
  *
  * The store's scan produces these rows itself from the catalog the store
  * holds (see [[repro.core.storage.SegmentSource]]), and
  * `ModelarDB.segmentView` opens it. `sidx`/`nseries` locate the series inside the
  * segment's parameter blob. Queries and results use Tids and dimension
  * members only: a filter on `tid` or on a dimension column is rewritten to
  * the Gids of the matching series' groups and pushed to the segment store
  * (Section VI-B), whether it comes from SQL on `segment_view` or from
  * `DataFrame.filter`.
  */
object SegmentView {

  /** The model columns of a row: the `*_S` arguments and the input of the
    * `CUBE_*` UDF.
    */
  val SegFields: Seq[String] =
    Seq("start_time", "end_time", "si", "mid", "params", "sidx", "nseries", "scaling")

  /** A UDF over a Segment View row's [[SegFields]], applied to them: how
    * `CUBE_*` reaches [[SegmentEval]].
    */
  private[views] def segUdf[R: TypeTag](f: Udafs.Seg => R): Column =
    udf { (start: Long, end: Long, si: Int, mid: Int, params: Array[Byte],
           sidx: Int, nseries: Int, scaling: Double) =>
      f(Udafs.Seg(start, end, si, mid, params, sidx, nseries, scaling))
    }.apply(SegFields.map(col): _*)

  /** The columns a per-segment result keeps from a Segment View: `tid`, the
    * dimension columns and any caller-added ones, without the model internals.
    */
  private[views] def passThrough(segView: DataFrame): Seq[String] =
    segView.columns.toSeq.filterNot(c =>
      SegFields.contains(c) || c == "gaps" || c == "gid")
}
