package repro.core.views

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.reflect.runtime.universe.TypeTag

import repro.core.Catalog
import repro.core.storage.SegmentSource

/** The paper's Segment View (Section VI-A): segments from the group store
  * joined with the denormalised Time Series table, one row per represented
  * time series, schema `(tid, gid, start_time, end_time, si, mid, params,
  * gaps, sidx, nseries, scaling, <dimension columns>)`.
  *
  * The store's scan produces these rows itself when it is given the catalog
  * (see [[SegmentSource]]). `sidx`/`nseries` locate the series inside the
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

  /** The Segment View over the store at `storePath`. */
  def apply(spark: SparkSession, storePath: String, catalog: Catalog): DataFrame =
    spark.read.format(SegmentSource.FormatName)
      .option(SegmentSource.CatalogOption, catalog.encoded)
      .load(storePath)

  /** The Segment View restricted to the series with `member` at 1-based
    * `level` of `dimension`: a filter on their Tids, which the store rewrites
    * to the Gids of the groups holding them (Section VI-B). A dimension,
    * level or member the catalog does not have selects nothing.
    */
  def forMember(
      spark: SparkSession,
      storePath: String,
      catalog: Catalog,
      dimension: String,
      level: Int,
      member: String,
  ): DataFrame =
    apply(spark, storePath, catalog)
      .filter(col("tid").isin(catalog.tidsForMember(dimension, level, member): _*))
}
