package repro.core.grouping

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Types.TimeSeriesMeta

class GrouperSpec extends AnyFunSuite {

  private val location = DimensionSpec("Location", IndexedSeq("Park", "Entity"))
  private val dims     = Seq(location)

  private def ts(tid: Int, park: String, entity: String): TimeSeriesMeta =
    TimeSeriesMeta(tid, 100, dims = Map("Location" -> IndexedSeq(park, entity)),
                   source = s"s$tid")

  test("no clauses: one group per series") {
    val series = (1 to 5).map(i => ts(i, s"p$i", s"e$i"))
    val g = Grouper.group(series, dims, Nil)
    assert(g.groups.length == 5)
    assert(g.groups.forall(_.tids.length == 1))
    assert(g.groups.map(_.tids.length).sum.toDouble / g.groups.length == 1.0)
  }

  test("Lca clause merges series sharing a park (Algorithm 1 fixpoint)") {
    val series = Seq(ts(1, "p1", "a"), ts(2, "p1", "b"), ts(3, "p2", "c"),
                     ts(4, "p1", "d"), ts(5, "p2", "e"))
    val g = Grouper.group(series, dims, Seq(Correlation.Lca("Location", 1)))
    assert(g.groups.length == 2)
    assert(g.groups.map(_.tids.toSet).toSet == Set(Set(1, 2, 4), Set(3, 5)))
  }

  test("gids are 1-based and ordered by smallest tid") {
    val series = Seq(ts(3, "p2", "c"), ts(1, "p1", "a"), ts(2, "p1", "b"))
    val g = Grouper.group(series, dims, Seq(Correlation.Lca("Location", 1)))
    assert(g.groups.map(_.gid) == IndexedSeq(1, 2))
    assert(g.groups.head.tids == IndexedSeq(1, 2)) // group containing tid 1 first
    assert(g.groups.filter(_.tids.contains(3)).map(_.gid) == IndexedSeq(2))
  }

  test("clauses apply in order (priority)") {
    val measure = DimensionSpec("Measure", IndexedSeq("Concrete"))
    val mkTs = (tid: Int, park: String, m: String) =>
      TimeSeriesMeta(tid, 100, dims = Map(
        "Location" -> IndexedSeq(park, s"e$tid"), "Measure" -> IndexedSeq(m)))
    val series = Seq(mkTs(1, "p1", "a"), mkTs(2, "p1", "b"), mkTs(3, "p2", "a"))
    val bothDims = Seq(location, measure)
    // First group by park, then by measure: once 1+2 merged, the group's
    // measures are {a, b} so no further merge with 3 under Measure equality.
    val g = Grouper.group(series, bothDims,
      Seq(Correlation.Lca("Location", 1), Correlation.Lca("Measure", 0)))
    assert(g.groups.map(_.tids.toSet).toSet == Set(Set(1, 2), Set(3)))
  }

  test("correlated must hold for ALL series of both groups") {
    // distances: 1<->2 small, but 1<->3 large: 3 only merges into {1,2} if
    // correlated with the whole group — which Lca over the union enforces.
    val series = Seq(ts(1, "p1", "a"), ts(2, "p1", "b"), ts(3, "p2", "c"))
    val g = Grouper.group(series, dims, Seq(Correlation.Lca("Location", 1)))
    assert(g.groups.length == 2)
  }

  test("groups never exceed 64 series (Gaps bitmask)") {
    val series = (1 to 150).map(i => ts(i, "sharedPark", s"e$i"))
    val g = Grouper.group(series, dims, Seq(Correlation.Lca("Location", 1)))
    assert(g.groups.forall(_.tids.length <= 64))
    assert(g.groups.map(_.tids.length).sum == 150)
  }

  test("grouping cost is reported") {
    val g = Grouper.group(Seq(ts(1, "p", "e")), dims, Nil)
    assert(g.nanos > 0)
  }

  test("Sources clause groups the named series only") {
    val series = (1 to 4).map(i => ts(i, s"p$i", s"e$i"))
    val g = Grouper.group(series, dims, Seq(Correlation.Sources(Set("s1", "s3"))))
    assert(g.groups.map(_.tids.toSet).toSet == Set(Set(1, 3), Set(2), Set(4)))
  }
}
