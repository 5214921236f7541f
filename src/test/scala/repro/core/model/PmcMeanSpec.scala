package repro.core.model

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Types.SeriesAgg

class PmcMeanSpec extends AnyFunSuite {

  private def fit(values: Seq[Array[Float]], eps: Double): ModelFitter = {
    val f = PmcMean.newFitter(values.head.length, eps, 1000)
    values.foreach(v => assert(f.append(v), s"expected fit of ${v.toSeq}"))
    f
  }

  test("constant single series fits at eps=0 and reconstructs exactly") {
    val f = fit(Seq.fill(10)(Array(42.5f)), 0.0)
    assert(f.length == 10 && f.bytes == 4)
    val dec = PmcMean.decode(f.serialize(), 1, 10)
    assert(dec.forall(_ == 42.5f))
  }

  test("eps=0 rejects any deviation") {
    val f = PmcMean.newFitter(1, 0.0, 1000)
    assert(f.append(Array(1.0f)))
    assert(!f.append(Array(1.0000001f)))
    assert(f.length == 1) // accepted prefix untouched
  }

  test("group of identical series fits at eps=0") {
    val f = fit(Seq.fill(5)(Array(7.0f, 7.0f, 7.0f)), 0.0)
    assert(f.length == 5)
    assert(PmcMean.decode(f.serialize(), 3, 5).forall(_ == 7.0f))
  }

  test("group with small spread fits within relative bound") {
    // values 100 ± 1 within 10%: tolerance of 99 is 9.9, of 101 is 10.1
    val f = fit(Seq.fill(4)(Array(99.0f, 101.0f)), 10.0)
    val v = PmcMean.decode(f.serialize(), 2, 4)(0)
    assert(math.abs(v - 99.0) <= 9.9 + 1e-6 && math.abs(v - 101.0) <= 10.1 + 1e-6)
  }

  test("group with spread beyond 2*tolerance rejects") {
    val f = PmcMean.newFitter(2, 1.0, 1000)
    assert(!f.append(Array(100.0f, 110.0f))) // tol 1.0 and 1.1, spread 10
    assert(f.length == 0)
  }

  test("every accepted value is within the relative bound of the model") {
    val eps = 5.0
    val rng = new scala.util.Random(3)
    val f   = PmcMean.newFitter(1, eps, 1000)
    val accepted = scala.collection.mutable.ArrayBuffer.empty[Float]
    var keep = true
    while (keep) {
      val v = (200.0 + rng.nextGaussian() * 3).toFloat
      keep = f.append(Array(v))
      if (keep) accepted += v
    }
    val model = PmcMean.decode(f.serialize(), 1, f.length)(0)
    accepted.foreach { v =>
      assert(math.abs(v - model) <= eps / 100.0 * math.abs(v) + 1e-6)
    }
  }

  test("mean drift can reject where midrange would not (PMC-Mean vs PMC-MR)") {
    // A skewed sequence: many values at the lower edge pull the mean below
    // the feasible interval for some tolerance; PMC-MR's midpoint always
    // stays inside, so PMC-MR accepts at least as many ticks.
    val values = Array(100.0f) ++ Array.fill(60)(90.5f)
    def run(t: ModelType): Int = {
      val f = t.newFitter(1, 5.0, 1000)
      values.iterator.takeWhile(v => f.append(Array(v))).foreach(_ => ())
      f.length
    }
    assert(run(PmcMidrange) >= run(PmcMean))
  }

  test("aggregate is closed form and matches decode") {
    val f   = fit(Seq.fill(7)(Array(10.0f, 10.0f)), 0.0)
    val p   = f.serialize()
    val agg = PmcMean.aggregate(p, 2, 7, 1, 5)
    assert(agg.length == 2)
    assert(agg(0) == SeriesAgg(5, 50.0, 10.0, 10.0))
    // must equal the generic decode-based default
    val fallbackAgg = new ModelType {
      def mid = -1; def name = "x"
      def newFitter(n: Int, e: Double, l: Int) = sys.error("n/a")
      def decode(pp: Array[Byte], n: Int, l: Int) = PmcMean.decode(pp, n, l)
    }.aggregate(p, 2, 7, 1, 5)
    assert(agg.toSeq == fallbackAgg.toSeq)
  }

  test("aggregate rejects bad ranges") {
    val f = fit(Seq.fill(3)(Array(1.0f)), 0.0)
    intercept[IllegalArgumentException](PmcMean.aggregate(f.serialize(), 1, 3, 2, 1))
    intercept[IllegalArgumentException](PmcMean.aggregate(f.serialize(), 1, 3, 0, 3))
  }

  test("serialize of empty fitter rejects") {
    intercept[IllegalArgumentException](PmcMean.newFitter(1, 0.0, 10).serialize())
  }

  test("PMC-MR stores the midpoint") {
    val f = PmcMidrange.newFitter(1, 50.0, 100)
    assert(f.append(Array(100.0f)) && f.append(Array(140.0f)))
    val v = PmcMidrange.decode(f.serialize(), 1, 2)(0)
    // feasible interval [140-70, 100+50] = [70, 150] -> midpoint 110
    assert(math.abs(v - 110.0f) < 1e-3)
  }

  test("PMC-Mean and PMC-MR reject a tick holding an infinity") {
    // As the first tick, alone or beside a finite value, and as a later one.
    val infinities = Seq(Float.PositiveInfinity, Float.NegativeInfinity)
    for (mt <- Seq(PmcMean, PmcMidrange); eps <- Seq(0.0, 10.0); inf <- infinities) {
      val what = s"${mt.name} at eps=$eps with $inf"
      Seq(Array(inf), Array(5.0f, inf)).foreach { tick =>
        val f = mt.newFitter(tick.length, eps, 1000)
        assert(!f.append(tick) && f.length == 0, what)
      }
      val later = mt.newFitter(1, eps, 1000)
      assert(later.append(Array(5.0f)), what)
      assert(!later.append(Array(inf)) && later.length == 1, what)
      assert(mt.decode(later.serialize(), 1, 1).toSeq == Seq(5.0f), what)
    }
  }
}
