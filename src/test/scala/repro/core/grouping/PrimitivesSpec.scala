package repro.core.grouping

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Types.TimeSeriesMeta

class PrimitivesSpec extends AnyFunSuite {

  private val location = DimensionSpec("Location", IndexedSeq("Country", "Park", "Entity"))
  private val measure  = DimensionSpec("Measure", IndexedSeq("Category", "Concrete"))
  private val dims     = Seq(location, measure)

  private def ts(tid: Int, country: String, park: String, entity: String,
                 cat: String, con: String, src: String = ""): TimeSeriesMeta =
    TimeSeriesMeta(tid, 100,
      dims = Map("Location" -> IndexedSeq(country, park, entity),
                 "Measure"  -> IndexedSeq(cat, con)),
      source = if (src.isEmpty) s"s$tid.gz" else src)

  private val a = ts(1, "DK", "p1", "e1", "temp", "oil")
  private val b = ts(2, "DK", "p1", "e2", "temp", "oil")
  private val c = ts(3, "DK", "p2", "e3", "temp", "air")
  private val d = ts(4, "SE", "p9", "e9", "speed", "rotor")

  test("Sources groups exactly the named sources") {
    val cl = Correlation.Sources(Set("s1.gz", "s2.gz"))
    assert(cl.correlated(Seq(a), Seq(b), dims))
    assert(!cl.correlated(Seq(a), Seq(c), dims))
  }

  test("Member triple matches the member at the level") {
    val cl = Correlation.Member("Measure", 2, "oil")
    assert(cl.correlated(Seq(a), Seq(b), dims))
    assert(!cl.correlated(Seq(a), Seq(c), dims))
    val cat = Correlation.Member("Measure", 1, "temp")
    assert(cat.correlated(Seq(a), Seq(c), dims))
  }

  test("Member rejects out-of-range levels") {
    intercept[IllegalArgumentException] {
      Correlation.Member("Measure", 3, "oil").correlated(Seq(a), Seq(b), dims)
    }
  }

  test("Lca positive level: LCA at least that deep") {
    assert(Correlation.Lca("Location", 2).correlated(Seq(a), Seq(b), dims))  // share park
    assert(!Correlation.Lca("Location", 2).correlated(Seq(a), Seq(c), dims)) // only country
    assert(Correlation.Lca("Location", 1).correlated(Seq(a), Seq(c), dims))
  }

  test("Lca zero: all levels must be equal") {
    val same = ts(5, "DK", "p1", "e1", "x", "y")
    assert(Correlation.Lca("Location", 0).correlated(Seq(a), Seq(same), dims))
    assert(!Correlation.Lca("Location", 0).correlated(Seq(a), Seq(b), dims))
  }

  test("Lca negative: all but the lowest |n| levels equal") {
    // -1: country and park must match (entity may differ)
    assert(Correlation.Lca("Location", -1).correlated(Seq(a), Seq(b), dims))
    assert(!Correlation.Lca("Location", -1).correlated(Seq(a), Seq(c), dims))
    // -2: only country must match
    assert(Correlation.Lca("Location", -2).correlated(Seq(a), Seq(c), dims))
  }

  test("Distance threshold semantics") {
    // a vs b: Location (3-2)/3 = 1/3, Measure 0 -> dist = (1/3)/2 = 1/6
    assert(Correlation.Distance(0.17).correlated(Seq(a), Seq(b), dims))
    assert(!Correlation.Distance(0.16).correlated(Seq(a), Seq(b), dims))
    assert(Correlation.Distance(1.0).correlated(Seq(a), Seq(d), dims))
    assert(!Correlation.Distance(0.0).correlated(Seq(a), Seq(b), dims))
  }

  test("Distance outside [0,1] rejected") {
    intercept[IllegalArgumentException](Correlation.Distance(1.5))
    intercept[IllegalArgumentException](Correlation.Distance(-0.1))
    // A weight must be finite and positive: the distance divides by it.
    Seq(-1.0, 0.0, Double.NaN, Double.PositiveInfinity).foreach { w =>
      val d = intercept[IllegalArgumentException](Correlation.Distance(0.5, Map("Location" -> w)))
      assert(d.getMessage.contains(s"weight $w of dimension Location"), d.getMessage)
      val a = intercept[IllegalArgumentException](Correlation.Auto(Map("Measure" -> w)))
      assert(a.getMessage.contains(s"weight $w of dimension Measure"), a.getMessage)
    }
  }

  test("Auto rewrites to the lowest non-zero distance") {
    // auto = (1/3)/2 = 1/6; a vs b has distance exactly 1/6 -> correlated
    assert(Correlation.Auto().correlated(Seq(a), Seq(b), dims))
    assert(!Correlation.Auto().correlated(Seq(a), Seq(c), dims))
  }

  test("And / Or combinators") {
    val lca  = Correlation.Lca("Location", 2)
    val mem  = Correlation.Member("Measure", 1, "temp")
    assert(Correlation.And(Seq(lca, mem)).correlated(Seq(a), Seq(b), dims))
    assert(!Correlation.And(Seq(lca, mem)).correlated(Seq(a), Seq(c), dims))
    assert(Correlation.Or(Seq(lca, mem)).correlated(Seq(a), Seq(c), dims))
    assert(!Correlation.Or(Seq(lca, mem)).correlated(Seq(a), Seq(d), dims))
    intercept[IllegalArgumentException](Correlation.And(Nil))
    intercept[IllegalArgumentException](Correlation.Or(Nil))
  }

  test("scaling rules: first match wins, default 1.0") {
    val rules = Seq(
      ScalingRule.ForSource("s1.gz", 2.0),
      ScalingRule.ForMember("Measure", 1, "temp", 0.5),
    )
    assert(Primitives.scalingOf(a, rules, dims) == 2.0) // source rule first
    assert(Primitives.scalingOf(b, rules, dims) == 0.5) // member rule
    assert(Primitives.scalingOf(d, rules, dims) == 1.0) // default
  }

  test("unknown dimension raises") {
    intercept[IllegalArgumentException] {
      Correlation.Lca("Nope", 1).correlated(Seq(a), Seq(b), dims)
    }
    // A weight on a dimension the data set does not have.
    Seq(Correlation.Distance(1.0, Map("Locaton" -> 2.0)), Correlation.Auto(Map("Locaton" -> 2.0)))
      .foreach { cl =>
        val e = intercept[IllegalArgumentException](cl.correlated(Seq(a), Seq(b), dims))
        assert(e.getMessage == "unknown dimension Locaton", cl)
      }
  }
}
