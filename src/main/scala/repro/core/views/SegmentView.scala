package repro.core.views

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.reflect.runtime.universe.TypeTag

import repro.core.Catalog
import repro.core.storage.SegmentSource

/** The paper's Segment View (Section VI-A): segments from the group store
  * exploded to one row per represented time series, with the series'
  * denormalized dimensions attached, schema
  * `(tid, gid, start_time, end_time, si, mid, params, gaps, sidx, nseries,
  * scaling, <dimension columns>)`.
  *
  * `sidx`/`nseries` locate the series inside the segment's parameter blob.
  * Queries and results use Tids only; Gids are derived here and pushed to
  * the segment store (Section VI-B).
  */
object SegmentView {

  /** The model columns of a row: the `*_S` arguments and the input of every
    * view UDF that evaluates a segment.
    */
  val SegFields: Seq[String] =
    Seq("start_time", "end_time", "si", "mid", "params", "sidx", "nseries", "scaling")

  /** A UDF over a Segment View row's [[SegFields]], applied to them: how the
    * Data Point View and `CUBE_*` reach [[SegmentEval]].
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

  /** Build the Segment View.
    *
    * @param tids      restrict to these series: rewritten to a Gid IN filter
    *                  on the store (predicate push-down) plus a tid filter
    *                  after the explode
    * @param timeRange restrict to segments overlapping [from, to]
    */
  def apply(
      spark: SparkSession,
      storePath: String,
      catalog: Catalog,
      tids: Option[Seq[Int]] = None,
      timeRange: Option[(Long, Long)] = None,
  ): DataFrame = {
    var df = spark.read.format(SegmentSource.FormatName).load(storePath)

    tids.foreach { ts =>
      val gids = catalog.gidsForTids(ts)
      df = df.filter(col("gid").isin(gids.toSeq: _*))
    }
    timeRange.foreach { case (from, to) =>
      df = df.filter(col("end_time") >= from && col("start_time") <= to)
    }

    // Explode each segment into its represented members: the group's sorted
    // tids minus the ones flagged in the Gaps bitmask.
    val members  = catalog.groups.map(g => g.gid -> g.tids).toMap
    val scalings = catalog.series.map(s => s.tid -> s.scaling).toMap
    val explodeMembers = udf { (gid: Int, gaps: Long) =>
      val tidsOfGroup = members(gid)
      val present = tidsOfGroup.zipWithIndex.collect {
        case (tid, i) if (gaps & (1L << i)) == 0 => tid
      }
      present.zipWithIndex.map { case (tid, sidx) =>
        (tid, sidx, present.length, scalings(tid))
      }
    }

    var view = df
      .withColumn("m", explode(explodeMembers(col("gid"), col("gaps"))))
      .select(
        col("m._1").as("tid"),
        col("gid"),
        col("start_time"), col("end_time"), col("si"), col("mid"),
        col("params"), col("gaps"),
        col("m._2").as("sidx"),
        col("m._3").as("nseries"),
        col("m._4").as("scaling"),
      )

    tids.foreach(ts => view = view.filter(col("tid").isin(ts: _*)))

    // Denormalized dimension columns (cached metadata, added during query
    // processing — paper Section VI-A).
    val dimCols   = catalog.dimColumns
    if (dimCols.nonEmpty) {
      val dimValues = catalog.series.map(s => s.tid -> catalog.dimValues(s.tid).toArray).toMap
      val dimsUdf   = udf { (tid: Int) => dimValues(tid) }
      view = view.withColumn("_dims", dimsUdf(col("tid")))
      dimCols.zipWithIndex.foreach { case ((name, _, _), i) =>
        view = view.withColumn(name, col("_dims").getItem(i))
      }
      view = view.drop("_dims")
    }
    view
  }

  /** Segment-view scan for one dimension member predicate: the member is
    * rewritten to the Gids of groups containing matching series, pushed to
    * the store, and re-checked on the exploded rows (Section VI-B).
    */
  def forMember(
      spark: SparkSession,
      storePath: String,
      catalog: Catalog,
      dimension: String,
      level: Int,
      member: String,
  ): DataFrame =
    apply(spark, storePath, catalog, tids = Some(catalog.tidsForMember(dimension, level, member)))
}
