package repro.core.model

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class GorillaSpec extends AnyFunSuite {

  private def roundtrip(ticks: Seq[Array[Float]]): Array[Float] = {
    val n = ticks.head.length
    val f = Gorilla.newFitter(n, 0.0, ticks.length)
    ticks.foreach(t => assert(f.append(t)))
    Gorilla.decode(f.serialize(), n, ticks.length)
  }

  test("single value roundtrips") {
    assert(roundtrip(Seq(Array(3.14f))).toSeq == Seq(3.14f))
  }

  test("identical values use one bit each after the first") {
    val f = Gorilla.newFitter(1, 0.0, 100)
    (0 until 100).foreach(_ => assert(f.append(Array(7.5f))))
    // 32 bits + 99 zero bits = 131 bits = 17 bytes
    assert(f.bytes == 17)
    assert(Gorilla.decode(f.serialize(), 1, 100).forall(_ == 7.5f))
  }

  test("random values roundtrip exactly (lossless)") {
    val rng   = new Random(5)
    val ticks = Seq.fill(200)(Array(rng.nextFloat() * 1000 - 500))
    val dec   = roundtrip(ticks)
    ticks.zipWithIndex.foreach { case (t, i) => assert(dec(i) == t(0)) }
  }

  test("special values roundtrip (NaN, infinities, zeros, denormals)") {
    val vals = Seq(0.0f, -0.0f, Float.NaN, Float.PositiveInfinity,
                   Float.NegativeInfinity, Float.MinPositiveValue, Float.MaxValue)
    val dec = roundtrip(vals.map(Array(_)))
    vals.zipWithIndex.foreach { case (v, i) =>
      assert(java.lang.Float.floatToRawIntBits(dec(i)) == java.lang.Float.floatToRawIntBits(v))
    }
  }

  test("group interleaving is tick-major and lossless") {
    val rng   = new Random(6)
    val base  = Array.fill(300)(rng.nextFloat() * 100)
    // three correlated series: base plus tiny per-series offsets
    val ticks = base.map(b => Array(b, b + 0.5f, b + 1.0f)).toSeq
    val dec   = roundtrip(ticks)
    ticks.zipWithIndex.foreach { case (t, i) =>
      (0 until 3).foreach(s => assert(dec(i * 3 + s) == t(s)))
    }
  }

  test("correlated group compresses better than uncorrelated per point") {
    val rng  = new Random(9)
    val base = Array.fill(256)((rng.nextInt(4000).toFloat) / 4)
    val corr = Gorilla.newFitter(4, 0.0, 256)
    base.foreach(b => assert(corr.append(Array(b, b, b, b))))
    val uncorr = Gorilla.newFitter(4, 0.0, 256)
    base.foreach(_ => assert(uncorr.append(Array.fill(4)(rng.nextFloat() * 1e6f))))
    assert(corr.bytes < uncorr.bytes)
  }

  test("bytes is the serialized length after every tick up to the length bound") {
    val rng   = new Random(12)
    val bound = 50
    // Repeats, near neighbours and far jumps, so every control code occurs.
    val ticks = (0 until bound + 1).map { t =>
      Array.tabulate(3) { s =>
        if (t % 7 == 0) 1.0f else if (t % 3 == 0) 100.0f + s * 0.001f else rng.nextFloat() * 1e4f
      }
    }
    val f = Gorilla.newFitter(3, 0.0, bound)
    ticks.take(bound).zipWithIndex.foreach { case (t, i) =>
      assert(f.append(t))
      assert(f.bytes == f.serialize().length, s"after tick $i")
    }
    val full = f.serialize()
    assert(!f.append(ticks(bound)))
    assert(f.length == bound && f.serialize().sameElements(full))
    val dec = Gorilla.decode(full, 3, bound)
    ticks.take(bound).flatten.zipWithIndex.foreach { case (v, i) => assert(dec(i) == v, s"value $i") }
  }

  test("NaN payloads, signed zeros, infinities and subnormals decode bit-exactly") {
    val bits = Seq(0x7fc00000, 0x7f800001, 0x7fbfffff, 0xffc00123, 0x7fffffff, // NaNs
                   0x00000000, 0x80000000, 0x7f800000, 0xff800000,              // ±0, ±∞
                   0x00000001, 0x807fffff, 0x00400000, 0x80000001,              // subnormals
                   0x00800000, 0x7f7fffff)                                      // extremes
    val vals  = bits.map(java.lang.Float.intBitsToFloat)
    // Two series, so consecutive values XOR across series and ticks alike.
    val ticks = vals.grouped(2).map(p => Array(p.head, p.last)).toSeq
    val f     = Gorilla.newFitter(2, 0.0, ticks.length)
    ticks.foreach(t => assert(f.append(t)))
    assert(f.bytes == f.serialize().length)
    val dec = Gorilla.decode(f.serialize(), 2, ticks.length)
    ticks.flatten.zipWithIndex.foreach { case (v, i) =>
      assert(java.lang.Float.floatToRawIntBits(dec(i)) == java.lang.Float.floatToRawIntBits(v),
             f"value $i: ${java.lang.Float.floatToRawIntBits(v)}%08x")
    }
  }

  test("length bound enforced") {
    val f = Gorilla.newFitter(1, 0.0, 5)
    (0 until 5).foreach(i => assert(f.append(Array(i.toFloat))))
    assert(!f.append(Array(99.0f)))
    assert(f.length == 5)
  }

  test("lossless flag and no epsilon dependence") {
    assert(Gorilla.lossless)
    val fA = Gorilla.newFitter(1, 0.0, 10)
    val fB = Gorilla.newFitter(1, 50.0, 10)
    (0 until 10).foreach { i =>
      val v = Array(i * 1.5f)
      assert(fA.append(v) && fB.append(v))
    }
    assert(fA.serialize().toSeq == fB.serialize().toSeq)
  }

  test("default aggregate decodes and accumulates") {
    val ticks = (0 until 20).map(i => Array(i.toFloat))
    val f = Gorilla.newFitter(1, 0.0, 20)
    ticks.foreach(t => assert(f.append(t)))
    val agg = Gorilla.aggregate(f.serialize(), 1, 20, 5, 9)
    assert(agg(0).count == 5 && agg(0).sum == (5 + 6 + 7 + 8 + 9).toDouble)
    assert(agg(0).min == 5.0 && agg(0).max == 9.0)
  }
}

class FallbackSpec extends AnyFunSuite {

  test("raw floats roundtrip exactly") {
    val rng   = new Random(8)
    val ticks = Seq.fill(64)(Array(rng.nextFloat(), rng.nextFloat()))
    val f = Fallback.newFitter(2, 0.0, 64)
    ticks.foreach(t => assert(f.append(t)))
    assert(f.bytes == 64 * 2 * 4)
    val dec = Fallback.decode(f.serialize(), 2, 64)
    ticks.zipWithIndex.foreach { case (t, i) =>
      assert(dec(i * 2) == t(0) && dec(i * 2 + 1) == t(1))
    }
  }

  test("always accepts until the length bound") {
    val f = Fallback.newFitter(1, 0.0, 3)
    assert(f.append(Array(1f)) && f.append(Array(1e30f)) && f.append(Array(-1e30f)))
    assert(!f.append(Array(0f)))
  }

  test("fallback has mid 0 and is in the registry") {
    assert(Fallback.mid == 0)
    assert(ModelType.byMid(0) eq Fallback)
    assert(ModelType.byMid.size == 5)
    assert(ModelType.defaultList.map(_.name) == Seq("PMC-Mean", "Swing", "Gorilla"))
    assert(ModelType.mdbV1List.head.name == "PMC-MR")
  }
}
