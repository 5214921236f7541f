package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputFilter, ObjectInputStream, ObjectOutputStream}
import java.util.Base64

import repro.core.Types.{Group, TimeSeriesMeta}
import repro.core.grouping.{DimensionSpec, Dimensions}

/** In-memory metadata for one ModelarDB+ store: the paper's Time Series table
  * (Tid → SI, Scaling, Gid, denormalized dimensions) plus the group
  * membership needed to map query Tids to stored Gids (paper Section VI-B).
  * Small (O(#series)) and shipped to executors inside task closures, mirroring
  * the paper's in-memory dimension cache.
  *
  * Construction checks the invariants ingestion relies on: a group has at
  * most 64 members (the Gaps bitmask), its members share one sampling
  * interval (a segment has one SI), and the groups partition `series`.
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

  /** Gids of every group containing at least one series with `member` at
    * 1-based `level` of `dimension` — the paper's WHERE-clause member
    * rewrite (Section VI-B).
    */
  def gidsForMember(dimension: String, level: Int, member: String): Set[Int] =
    gidsForTids(tidsForMember(dimension, level, member))

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

  /** This catalog Java-serialised and Base64-encoded, computed once: how it
    * reaches the segment store's scan as a table option.
    */
  @transient lazy val encoded: String = {
    val bytes = new ByteArrayOutputStream()
    val out   = new ObjectOutputStream(bytes)
    out.writeObject(this)
    out.close()
    Base64.getEncoder.encodeToString(bytes.toByteArray)
  }
}

object Catalog {
  /** The classes a serialised catalog is made of: the metadata classes, the
    * Scala collections, options and tuples holding them, and boxed values.
    * Any other class in a [[decode]]d option is rejected before it is
    * instantiated, since the option can come from outside the program.
    */
  private val DecodeFilter: ObjectInputFilter = ObjectInputFilter.Config.createFilter(
    "!scala.collection.immutable.LazyList*;repro.core.**;scala.collection.**;scala.*;" +
      "scala.runtime.ModuleSerializationProxy;java.lang.Object;java.lang.Number;" +
      "java.lang.Integer;java.lang.Long;java.lang.Double;java.lang.String;!*")

  /** The catalog an [[Catalog.encoded]] string holds. */
  def decode(encoded: String): Catalog = {
    val in = new ObjectInputStream(new ByteArrayInputStream(Base64.getDecoder.decode(encoded)))
    in.setObjectInputFilter(DecodeFilter)
    try in.readObject().asInstanceOf[Catalog] finally in.close()
  }
}
