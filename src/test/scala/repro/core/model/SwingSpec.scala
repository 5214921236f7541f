package repro.core.model

import org.scalatest.funsuite.AnyFunSuite

class SwingSpec extends AnyFunSuite {

  private val Q = 1024.0f
  private def q(x: Double): Float = Math.round(x * Q) / Q

  test("exactly linear single series fits at eps=0 and reconstructs exactly") {
    val slope = q(0.125); val b = q(100.0)
    val values = (0 until 40).map(i => b + slope * i)
    val f = Swing.newFitter(1, 0.0, 1000)
    values.foreach(v => assert(f.append(Array(v)), s"tick $v"))
    assert(f.length == 40 && f.bytes == 8)
    val dec = Swing.decode(f.serialize(), 1, 40)
    values.zipWithIndex.foreach { case (v, i) => assert(dec(i) == v, s"tick $i") }
  }

  test("constant series is a zero-slope line") {
    val f = Swing.newFitter(1, 0.0, 1000)
    (0 until 10).foreach(_ => assert(f.append(Array(5.5f))))
    assert(Swing.decode(f.serialize(), 1, 10).forall(_ == 5.5f))
  }

  test("eps=0 rejects a bend in the line") {
    val f = Swing.newFitter(1, 0.0, 1000)
    assert(f.append(Array(0.0f)))
    assert(f.append(Array(1.0f)))
    assert(f.append(Array(2.0f)))
    assert(!f.append(Array(2.5f))) // would need slope 5/6
    assert(f.length == 3)
  }

  test("group of identical linear series fits at eps=0") {
    val values = (0 until 20).map(i => q(50.0) + q(0.25) * i)
    val f = Swing.newFitter(3, 0.0, 1000)
    values.foreach(v => assert(f.append(Array(v, v, v))))
    val dec = Swing.decode(f.serialize(), 3, 20)
    (0 until 20).foreach(i => (0 until 3).foreach(s => assert(dec(i * 3 + s) == values(i))))
  }

  test("group intercept is fitted PMC-Mean style to the first tick") {
    val f = Swing.newFitter(2, 10.0, 1000)
    assert(f.append(Array(99.0f, 101.0f))) // intercept = 100
    assert(f.append(Array(100.0f, 100.0f)))
    val dec = Swing.decode(f.serialize(), 2, 2)
    assert(math.abs(dec(0) - 100.0f) < 1.0f)
  }

  test("noisy values within relative bound fit and respect the bound") {
    val eps = 10.0
    val rng = new scala.util.Random(11)
    val f   = Swing.newFitter(1, eps, 1000)
    val accepted = scala.collection.mutable.ArrayBuffer.empty[Float]
    var keep = true
    var i = 0
    while (keep && i < 200) {
      val v = (100.0 + 0.2 * i + rng.nextGaussian() * 2).toFloat
      keep = f.append(Array(v))
      if (keep) accepted += v
      i += 1
    }
    assert(f.length == accepted.length && f.length >= 2)
    val dec = Swing.decode(f.serialize(), 1, f.length)
    accepted.zipWithIndex.foreach { case (v, t) =>
      assert(math.abs(v - dec(t)) <= eps / 100.0 * math.abs(v) + 1e-5,
             s"tick $t: $v vs ${dec(t)}")
    }
  }

  test("steep values out of bound reject") {
    val f = Swing.newFitter(1, 1.0, 1000)
    assert(f.append(Array(100.0f)))
    assert(f.append(Array(200.0f)))
    assert(!f.append(Array(100.0f)))
  }

  test("aggregate closed form matches per-tick decode sum") {
    val slope = q(0.5); val b = q(10.0)
    val f = Swing.newFitter(2, 0.0, 1000)
    (0 until 30).foreach(i => { val v = b + slope * i; assert(f.append(Array(v, v))) })
    val p   = f.serialize()
    val agg = Swing.aggregate(p, 2, 30, 3, 17)
    val dec = Swing.decode(p, 2, 30)
    val expSum = (3 to 17).map(t => dec(t * 2).toDouble).sum
    assert(agg(0).count == 15)
    assert(math.abs(agg(0).sum - expSum) < 1e-9)
    assert(agg(0).min == dec(3 * 2).toDouble)
    assert(agg(0).max == dec(17 * 2).toDouble)
  }

  test("aggregate min/max flip for negative slope") {
    val f = Swing.newFitter(1, 0.0, 1000)
    (0 until 10).foreach(i => assert(f.append(Array(q(100.0) - q(1.0) * i))))
    val agg = Swing.aggregate(f.serialize(), 1, 10, 0, 9)
    assert(agg(0).min == 91.0 && agg(0).max == 100.0)
  }

  test("serialize of empty fitter rejects") {
    intercept[IllegalArgumentException](Swing.newFitter(1, 0.0, 10).serialize())
  }

  test("Swing rejects a tick holding an infinity") {
    // As the first tick, alone or beside a finite value, and as a later one.
    for (eps <- Seq(0.0, 10.0); inf <- Seq(Float.PositiveInfinity, Float.NegativeInfinity)) {
      Seq(Array(inf), Array(5.0f, inf)).foreach { tick =>
        val f = Swing.newFitter(tick.length, eps, 1000)
        assert(!f.append(tick) && f.length == 0, s"eps=$eps first tick ${tick.toSeq}")
      }
      val later = Swing.newFitter(1, eps, 1000)
      assert(later.append(Array(5.0f)) && later.append(Array(6.0f)))
      assert(!later.append(Array(inf)) && later.length == 2, s"eps=$eps later $inf")
      assert(Swing.decode(later.serialize(), 1, 2).toSeq == Seq(5.0f, 6.0f))
    }
  }
}
