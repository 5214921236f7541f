package repro.core

import java.io.File
import java.nio.file.Files

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Stores
import repro.core.Types.{Group, TimeSeriesMeta}
import repro.core.grouping.DimensionSpec
import repro.core.storage.SegmentSource

class CatalogSpec extends AnyFunSuite {

  private val dims = Seq(
    DimensionSpec("Location", IndexedSeq("Park", "Entity")),
    DimensionSpec("Measure", IndexedSeq("Concrete")),
  )

  private def ts(tid: Int, park: String, entity: String, m: String): TimeSeriesMeta =
    TimeSeriesMeta(tid, 100, dims = Map(
      "Location" -> IndexedSeq(park, entity), "Measure" -> IndexedSeq(m)))

  private val series = IndexedSeq(
    ts(1, "p1", "e1", "temp"), ts(2, "p1", "e2", "temp"),
    ts(3, "p2", "e3", "speed"), ts(4, "p2", "e4", "temp"))
  private val groups = IndexedSeq(Group(1, IndexedSeq(1, 2)), Group(2, IndexedSeq(3, 4)))
  private val cat    = Catalog(series, groups, dims)

  test("GroupTable holds each group's members, scalings, SI and dimension values by slot") {
    val scaled = Catalog(series.map(s => s.copy(scaling = s.tid * 0.5)), groups, dims)
    val table  = GroupTable(scaled, withDims = true)
    assert(table.size == 2 && table.slot(7) == -1 && table.slot(0) == -1)
    val g = table.slot(2)
    assert(table.tids(g).toSeq == Seq(3, 4) && table.scalings(g).toSeq == Seq(1.5, 2.0))
    assert(table.sis(g) == 100)
    assert(table.dims(g).map(_.toSeq).toSeq == Seq(Seq("p2", "e3", "speed"), Seq("p2", "e4", "temp")))
    // Equal values are one object, so the table serialises each once.
    assert(table.dims(g)(0)(0) eq table.dims(g)(1)(0))
    assert(GroupTable(scaled, withDims = false).dims.isEmpty)
  }

  test("gidOf maps every tid to its group") {
    assert(cat.gidOf == Map(1 -> 1, 2 -> 1, 3 -> 2, 4 -> 2))
  }

  test("membersOf returns sorted tids (the Gaps bit order)") {
    assert(cat.membersOf(1) == IndexedSeq(1, 2))
  }

  test("gidsForTids rewrites tids to the gids to scan") {
    assert(cat.gidsForTids(Seq(1)) == Set(1))
    assert(cat.gidsForTids(Seq(2, 3)) == Set(1, 2))
  }

  test("gidsForTids of a member's tids finds the groups containing its series") {
    def gidsForMember(dim: String, level: Int, member: String) =
      cat.gidsForTids(cat.tidsForMember(dim, level, member))
    assert(gidsForMember("Measure", 1, "temp") == Set(1, 2))
    assert(gidsForMember("Measure", 1, "speed") == Set(2))
    assert(gidsForMember("Location", 1, "p1") == Set(1))
    assert(gidsForMember("Location", 1, "nowhere") == Set.empty[Int])
  }

  test("dimColumns are lowercase dim_level names in hierarchy order") {
    assert(cat.dimColumns.map(_._1) ==
           Seq("location_park", "location_entity", "measure_concrete"))
  }

  test("dimValues align with dimColumns") {
    assert(cat.dimValues(3) == Seq("p2", "e3", "speed"))
  }

  test("dimValues yields null for missing dimensions") {
    val bare = Catalog(IndexedSeq(TimeSeriesMeta(9, 100)), IndexedSeq(Group(1, IndexedSeq(9))), dims)
    assert(bare.dimValues(9) == Seq(null, null, null))
  }

  test("Group constructor rejects unsorted or empty tids") {
    intercept[IllegalArgumentException](Group(1, IndexedSeq(2, 1)))
    intercept[IllegalArgumentException](Group(1, IndexedSeq.empty[Int]))
  }

  test("a group of more than 64 members is rejected (the Gaps bitmask)") {
    val many = (1 to 65).map(TimeSeriesMeta(_, 100))
    val e = intercept[IllegalArgumentException](
      Catalog(many, IndexedSeq(Group(1, many.map(_.tid))), Nil))
    assert(e.getMessage.contains("group 1 has 65 members"))
    Catalog(many.take(64), IndexedSeq(Group(1, (1 to 64))), Nil) // 64 is allowed
  }

  test("a group mixing sampling intervals is rejected") {
    val e = intercept[IllegalArgumentException](Catalog(
      IndexedSeq(TimeSeriesMeta(1, 100), TimeSeriesMeta(2, 200)),
      IndexedSeq(Group(7, IndexedSeq(1, 2))), Nil))
    assert(e.getMessage.contains("group 7 mixes sampling intervals 100, 200"))
  }

  test("every series is in exactly one group and every member is a series") {
    def msg(groups: Group*): String = intercept[IllegalArgumentException](
      Catalog(series, groups.toIndexedSeq, dims)).getMessage
    assert(msg(Group(1, IndexedSeq(1, 2)), Group(2, IndexedSeq(3))).contains("series 4 is in 0 groups"))
    assert(msg(groups :+ Group(3, IndexedSeq(2)): _*).contains("series 2 is in 2 groups"))
    assert(msg(groups :+ Group(3, IndexedSeq(5)): _*).contains("group 3 member 5 is not a known series"))
  }

  test("repeated ids, a zero sampling interval and a zero or NaN scaling are rejected") {
    def msg(series: IndexedSeq[TimeSeriesMeta], groups: Group*): String =
      intercept[IllegalArgumentException](Catalog(series, groups.toIndexedSeq, Nil)).getMessage
    val (one, two) = (TimeSeriesMeta(1, 100), TimeSeriesMeta(2, 100))
    assert(msg(IndexedSeq(one, two), Group(1, IndexedSeq(1)), Group(1, IndexedSeq(2)))
             .contains("gid 1 is used more than once"))
    assert(msg(IndexedSeq(one, one), Group(1, IndexedSeq(1)), Group(2, IndexedSeq(1)))
             .contains("tid 1 is used more than once"))
    assert(msg(IndexedSeq(one.copy(si = 0)), Group(1, IndexedSeq(1)))
             .contains("series 1 has sampling interval 0; it must be positive"))
    assert(msg(IndexedSeq(one.copy(scaling = 0.0)), Group(1, IndexedSeq(1)))
             .contains("series 1 has scaling 0.0; it must be finite and non-zero"))
    assert(msg(IndexedSeq(one.copy(scaling = Double.NaN)), Group(1, IndexedSeq(1)))
             .contains("series 1 has scaling NaN; it must be finite and non-zero"))
  }

  test("a repeated dimension name or a dimension column that repeats a view column is rejected") {
    def msg(dims: DimensionSpec*): String = intercept[IllegalArgumentException](
      Catalog(IndexedSeq(TimeSeriesMeta(1, 100)), IndexedSeq(Group(1, IndexedSeq(1))), dims)).getMessage
    assert(msg(DimensionSpec("Location", IndexedSeq("Park")), DimensionSpec("Location", IndexedSeq("Turbine")))
             .contains("dimension Location is used more than once"))
    assert(msg(DimensionSpec("A", IndexedSeq("B_C")), DimensionSpec("A_B", IndexedSeq("C")))
             .contains("view column a_b_c is used more than once"))
    assert(msg(DimensionSpec("Start", IndexedSeq("Time")))
             .contains("view column start_time is used more than once"))
  }

  test("SeriesAgg merge combines statistics") {
    import repro.core.Types.SeriesAgg
    val a = SeriesAgg(2, 10.0, 1.0, 9.0)
    val b = SeriesAgg(3, 5.0, -2.0, 4.0)
    assert(a.merge(b) == SeriesAgg(5, 15.0, -2.0, 9.0))
    assert(SeriesAgg.empty.merge(a) == a)
  }

  test("SegmentRecord equality includes params content") {
    import repro.core.Types.SegmentRecord
    val s1 = SegmentRecord(1, 0L, 100L, 100, 1, Array[Byte](1, 2), 0L)
    val s2 = SegmentRecord(1, 0L, 100L, 100, 1, Array[Byte](1, 2), 0L)
    val s3 = SegmentRecord(1, 0L, 100L, 100, 1, Array[Byte](1, 3), 0L)
    assert(s1 == s2 && s1.hashCode == s2.hashCode)
    assert(s1 != s3)
    assert(s1.length == 2)
  }

  test("the catalog round-trips through the store's file, without its lookup maps") {
    val dir    = Stores.tmpDir("catalog")
    val scaled = cat.copy(series = cat.series.map(s => s.copy(scaling = s.tid / 3.0, source = s"f${s.tid}")))
    SegmentSource.writeCatalog(dir, scaled)
    assert(SegmentSource.storedCatalog(dir).contains(scaled))
    val json = new String(Files.readAllBytes(new File(dir, "catalog.json").toPath), "UTF-8")
    assert(Seq("byTid", "byGid", "gidOf").forall(m => !json.contains(m)), json)
    assert(new File(dir).list().toSeq == Seq("catalog.json"))
    // An unchanged file is parsed once; a rewritten one is read anew.
    assert(SegmentSource.storedCatalog(dir).get eq SegmentSource.storedCatalog(dir).get)
    SegmentSource.writeCatalog(dir, cat)
    assert(SegmentSource.storedCatalog(dir).contains(cat))
  }

  test("a truncated or invalid catalog file fails with its path in the message") {
    val dir  = Stores.tmpDir("catalog")
    val file = new File(dir, "catalog.json")
    SegmentSource.writeCatalog(dir, cat)
    val json = Files.readAllBytes(file.toPath)
    Files.write(file.toPath, json.take(json.length / 2))
    val truncated = intercept[IllegalArgumentException](SegmentSource.storedCatalog(dir))
    assert(truncated.getMessage.contains(s"catalog file $file is damaged or invalid"), truncated.getMessage)
    Files.write(file.toPath, new String(json, "UTF-8").replace("\"si\":100", "\"si\":0").getBytes("UTF-8"))
    val invalid = intercept[IllegalArgumentException](SegmentSource.storedCatalog(dir))
    assert(invalid.getMessage.contains(s"catalog file $file is damaged or invalid"), invalid.getMessage)
    assert(invalid.getMessage.contains("series 1 has sampling interval 0"), invalid.getMessage)
  }
}
