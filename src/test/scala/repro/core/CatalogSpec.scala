package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Types.{Group, TimeSeriesMeta}
import repro.core.grouping.DimensionSpec

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

  test("gidsForMember finds groups containing a member's series") {
    assert(cat.gidsForMember("Measure", 1, "temp") == Set(1, 2))
    assert(cat.gidsForMember("Measure", 1, "speed") == Set(2))
    assert(cat.gidsForMember("Location", 1, "p1") == Set(1))
    assert(cat.gidsForMember("Location", 1, "nowhere") == Set.empty[Int])
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

  test("decode restores an encoded catalog and rejects a foreign class") {
    assert(Catalog.decode(cat.encoded) == cat)
    val bytes = new java.io.ByteArrayOutputStream()
    val out   = new java.io.ObjectOutputStream(bytes)
    out.writeObject(new java.util.ArrayList[String]())
    out.close()
    val foreign = java.util.Base64.getEncoder.encodeToString(bytes.toByteArray)
    val e = intercept[java.io.InvalidClassException](Catalog.decode(foreign))
    assert(e.getMessage.contains("REJECTED"), e.getMessage)
  }
}
