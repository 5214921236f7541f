package repro.core

import scala.collection.mutable

import repro.core.Types.{Group, TimeSeriesMeta}
import repro.core.grouping.{DimensionSpec, Dimensions}
import repro.core.storage.SegmentSource

/** The metadata of one ModelarDB+ store, which keeps it in `catalog.json`
  * (see [[repro.core.storage.SegmentSource]]): the paper's Time Series table
  * (Tid → SI, Scaling, Gid, denormalized dimensions) plus the group
  * membership needed to map query Tids to stored Gids (paper Section VI-B).
  * Small (O(#series)) and kept on the driver, mirroring the paper's in-memory
  * dimension cache; tasks get the compact [[GroupTable]] built from it.
  *
  * Construction checks the invariants ingestion and the views rely on:
  * unique tids and gids, a positive SI and a finite non-zero scaling per
  * series, at most 64 members per group (the Gaps bitmask) sharing one SI,
  * groups that partition `series`, and unique dimension names whose columns
  * differ from each other and from the views' own columns.
  */
final case class Catalog(
    series: IndexedSeq[TimeSeriesMeta],
    groups: IndexedSeq[Group],
    dims: Seq[DimensionSpec],
) extends Serializable {

  @transient lazy val byTid: Map[Int, TimeSeriesMeta] = series.map(s => s.tid -> s).toMap
  @transient lazy val byGid: Map[Int, Group]          = groups.map(g => g.gid -> g).toMap
  @transient lazy val gidOf: Map[Int, Int] =
    groups.flatMap(g => g.tids.map(_ -> g.gid)).toMap

  Seq("tid" -> series.map(_.tid), "gid" -> groups.map(_.gid), "dimension" -> dims.map(_.name),
      "view column" -> SegmentSource.schemaOf(points = false, dimColumns.map(_._1)).fieldNames.toSeq,
      "view column" -> SegmentSource.schemaOf(points = true, dimColumns.map(_._1)).fieldNames.toSeq,
  ).foreach { case (kind, ids) =>
    val repeated = ids.diff(ids.distinct)
    require(repeated.isEmpty, s"$kind ${repeated.head} is used more than once")
  }
  groups.foreach { g =>
    require(g.tids.length <= 64,
      s"group ${g.gid} has ${g.tids.length} members; the Gaps bitmask allows at most 64")
    g.tids.foreach(t => require(byTid.contains(t), s"group ${g.gid} member $t is not a known series"))
    val sis = g.tids.map(byTid(_).si).distinct
    require(sis.length == 1, s"group ${g.gid} mixes sampling intervals ${sis.mkString(", ")}")
  }
  locally {
    val groupsPerTid = groups.flatMap(_.tids).groupMapReduce(identity)(_ => 1)(_ + _)
    series.foreach { ts =>
      require(ts.si > 0, s"series ${ts.tid} has sampling interval ${ts.si}; it must be positive")
      require(ts.scaling != 0 && java.lang.Double.isFinite(ts.scaling),
        s"series ${ts.tid} has scaling ${ts.scaling}; it must be finite and non-zero")
      val in = groupsPerTid.getOrElse(ts.tid, 0)
      require(in == 1, s"series ${ts.tid} is in $in groups; it must be in exactly one")
    }
  }

  /** Members of a group in sorted-tid order — the order of the Gaps bitmask. */
  def membersOf(gid: Int): IndexedSeq[Int] = byGid(gid).tids

  /** Gids to scan for a set of queried Tids (the Tid→Gid rewrite); a Tid
    * that is not a series of this store selects no group.
    */
  def gidsForTids(tids: Seq[Int]): Set[Int] = tids.flatMap(gidOf.get).toSet

  /** Tids of the series with `member` at 1-based `level` of `dimension`. */
  def tidsForMember(dimension: String, level: Int, member: String): Seq[Int] =
    series.filter(Dimensions.hasMember(_, dimension, level, member)).map(_.tid)

  /** Denormalized dimension columns of the views: (columnName, dimension,
    * 0-based level index), e.g. `location_park` for level `Park` of
    * dimension `Location`.
    */
  def dimColumns: Seq[(String, String, Int)] =
    dims.flatMap(d => d.levels.zipWithIndex.map { case (lvl, i) =>
      (s"${d.name}_$lvl".toLowerCase, d.name, i)
    })

  /** Dimension column values for one series, aligned with [[dimColumns]]. */
  def dimValues(tid: Int): Seq[String] = {
    val meta = byTid(tid)
    dimColumns.map { case (_, dim, lvl) =>
      meta.dims.get(dim).flatMap(_.lift(lvl)).orNull
    }
  }
}

/** The columns of each group that tasks read, built once on the driver from
  * a [[Catalog]] and shipped in its place: a group's members in sorted-tid
  * order (the order of the Gaps bitmask), their scaling constants and the
  * group's SI and, for the views' readers, the members' dimension values,
  * aligned with [[Catalog.dimColumns]]. Each array is indexed by the group's
  * [[slot]]. Equal dimension values are one object, so a table serialises
  * each once.
  */
final class GroupTable private (
    gids: Array[Int],
    val tids: Array[Array[Int]],
    val scalings: Array[Array[Double]],
    val sis: Array[Int],
    val dims: Array[Array[Array[String]]],
) extends Serializable {

  /** The number of groups. */
  def size: Int = gids.length

  /** The slot of group `gid`, or -1 if it is not a group of the catalog. */
  def slot(gid: Int): Int = math.max(java.util.Arrays.binarySearch(gids, gid), -1)
}

object GroupTable {

  /** The table of `catalog`'s groups, with the members' dimension values if
    * `withDims`, else with none.
    */
  def apply(catalog: Catalog, withDims: Boolean): GroupTable = {
    val groups = catalog.groups.sortBy(_.gid)
    val shared = mutable.HashMap.empty[String, String]
    new GroupTable(
      groups.map(_.gid).toArray,
      groups.map(_.tids.toArray).toArray,
      groups.map(_.tids.map(catalog.byTid(_).scaling).toArray).toArray,
      groups.map(g => catalog.byTid(g.tids.head).si).toArray,
      if (!withDims) Array.empty
      else groups.map(_.tids.map(catalog.dimValues(_).map(v =>
        if (v == null) null else shared.getOrElseUpdate(v, v)).toArray).toArray).toArray)
  }
}
