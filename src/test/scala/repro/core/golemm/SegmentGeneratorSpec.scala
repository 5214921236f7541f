package repro.core.golemm

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Types.SegmentRecord
import repro.core.model.{Gorilla, ModelType, PmcMean, Swing}

class SegmentGeneratorSpec extends AnyFunSuite {

  private val Q = 1024.0f
  private def q(x: Double): Float = Math.round(x * Q) / Q

  private def run(values: Seq[Array[Float]], cfg: GolemmConfig, nSeries: Int = 1,
                  si: Int = 100): Seq[SegmentRecord] = {
    val g = new SegmentGenerator(gid = 1, nSeries = nSeries, gaps = 0L, si = si, cfg = cfg)
    val emitted = values.zipWithIndex.flatMap { case (v, i) => g.append(i.toLong * si, v, 0) }
    emitted ++ g.flush()
  }

  /** Reconstruct all points of the emitted segments, tick-major per segment. */
  private def reconstruct(segs: Seq[SegmentRecord], nSeries: Int): Map[Long, Array[Float]] =
    segs.flatMap { s =>
      val len = s.length
      val dec = ModelType.byMid(s.mid).decode(s.params, nSeries, len)
      (0 until len).map(t => (s.startTime + t.toLong * s.si) -> dec.slice(t * nSeries, (t + 1) * nSeries))
    }.toMap

  test("constant run emits one PMC-Mean segment") {
    val segs = run(Seq.fill(30)(Array(5.0f)), GolemmConfig(epsilonPct = 0.0))
    assert(segs.length == 1)
    assert(segs.head.mid == PmcMean.mid)
    assert(segs.head.startTime == 0L && segs.head.endTime == 2900L && segs.head.length == 30)
  }

  test("linear run emits one Swing segment") {
    val values = (0 until 30).map(i => Array(q(10.0) + q(0.5) * i))
    val segs   = run(values, GolemmConfig(epsilonPct = 0.0))
    assert(segs.length == 1 && segs.head.mid == Swing.mid)
  }

  test("random run falls through to Gorilla, bounded by length limit") {
    val rng    = new scala.util.Random(17)
    val values = Seq.fill(120)(Array(rng.nextFloat() * 1000))
    val segs   = run(values, GolemmConfig(epsilonPct = 0.0, lengthBound = 50))
    assert(segs.forall(_.mid == Gorilla.mid))
    assert(segs.map(_.length).sum == 120)
    assert(segs.forall(_.length <= 50))
  }

  test("segments are disconnected and cover every tick exactly once") {
    val rng = new scala.util.Random(23)
    // alternating regimes force model switches
    val values = (0 until 40).map(_ => Array(50.0f)) ++
      (0 until 40).map(i => Array(q(100.0) + q(0.25) * i)) ++
      (0 until 40).map(_ => Array(rng.nextFloat() * 500))
    val segs = run(values.toSeq, GolemmConfig(epsilonPct = 0.0, lengthBound = 50))
    assert(segs.map(_.length).sum == 120)
    val covered = segs.flatMap(s => (s.startTime to s.endTime by s.si))
    assert(covered.distinct.length == covered.length) // no duplicates (disconnected)
    assert(covered.sorted == (0 until 120).map(_.toLong * 100))
  }

  test("lossy windows many times the length bound alternate with Gorilla windows") {
    // The buffer grows to hold each long constant window, and its front
    // empties while the Gorilla windows are emitted; each run is longer than
    // the last, so it both grows and compacts.
    val eps   = 1.0
    val bound = 8
    val n     = 3
    val rng   = new scala.util.Random(47)
    val values = (0 until 12).flatMap { r =>
      val level = 100.0 + 50 * r
      (0 until bound * (20 + 17 * r)).map(t => Array.fill(n)(q(level + 0.25 * math.sin(t.toDouble)))) ++
        (0 until 3 * bound + r).map(_ => Array.fill(n)(q(1000 + 9000 * rng.nextDouble())))
    }
    val segs = run(values, GolemmConfig(epsilonPct = eps, lengthBound = bound), nSeries = n)
    val covered = segs.flatMap(s => s.startTime to s.endTime by s.si)
    assert(covered.sorted == values.indices.map(_ * 100L))
    assert(segs.exists(s => s.mid == PmcMean.mid && s.length > 20 * bound))
    assert(segs.count(_.mid == Gorilla.mid) >= 12)
    val rec = reconstruct(segs, n)
    values.zipWithIndex.foreach { case (v, i) =>
      (0 until n).foreach { s =>
        val r = rec(i * 100L)(s)
        assert(math.abs(v(s) - r) <= eps / 100.0 * math.abs(v(s)) + 1e-4, s"tick $i series $s: ${v(s)} vs $r")
      }
    }
  }

  test("regime change emits the previously best model") {
    val values = (0 until 40).map(_ => Array(7.0f)) ++ (0 until 40).map(i => Array(1000.0f + 311.0f * ((i * 17) % 13)))
    val segs = run(values.toSeq, GolemmConfig(epsilonPct = 0.0, lengthBound = 50))
    assert(segs.head.mid == PmcMean.mid, s"first segment should be constant, got ${segs.map(_.mid)}")
    assert(segs.head.length >= 40 - 1)
  }

  test("reconstruction is exact at eps=0 over mixed regimes") {
    val rng = new scala.util.Random(31)
    val values = ((0 until 25).map(_ => q(77.0)) ++
      (0 until 25).map(i => q(10.0) + q(0.125) * i) ++
      (0 until 25).map(_ => q(rng.nextDouble() * 900))).map(Array(_))
    val segs = run(values.toSeq, GolemmConfig(epsilonPct = 0.0, lengthBound = 50))
    val rec  = reconstruct(segs, 1)
    values.zipWithIndex.foreach { case (v, i) =>
      assert(rec(i.toLong * 100)(0) == v(0), s"tick $i")
    }
  }

  test("reconstruction within relative bound at eps=10") {
    val eps = 10.0
    val rng = new scala.util.Random(37)
    val values = (0 until 300).map(_ => Array(q(100.0 + rng.nextGaussian() * 3)))
    val segs   = run(values, GolemmConfig(epsilonPct = eps, lengthBound = 50))
    val rec    = reconstruct(segs, 1)
    values.zipWithIndex.foreach { case (v, i) =>
      val r = rec(i.toLong * 100)(0)
      assert(math.abs(v(0) - r) <= eps / 100.0 * math.abs(v(0)) + 1e-4, s"tick $i: ${v(0)} vs $r")
    }
  }

  test("higher eps produces fewer segments/bytes on noisy data") {
    val rng    = new scala.util.Random(41)
    val values = Seq.fill(400)(Array(q(100.0 + rng.nextGaussian() * 2)))
    def bytes(eps: Double): Long =
      run(values, GolemmConfig(epsilonPct = eps, lengthBound = 50)).map(_.params.length.toLong + 16).sum
    assert(bytes(10.0) < bytes(0.0))
  }

  test("group values compress into one stream of models") {
    val values = (0 until 60).map(_ => Array(9.0f, 9.0f, 9.0f))
    val segs   = run(values, GolemmConfig(epsilonPct = 0.0), nSeries = 3)
    assert(segs.length == 1 && segs.head.mid == PmcMean.mid)
    assert(segs.head.params.length == 4) // one float for 180 points
  }

  test("gaps bitmask and gid are stamped on segments") {
    val g = new SegmentGenerator(gid = 42, nSeries = 2, gaps = 0x4L, si = 10, GolemmConfig())
    g.append(0L, Array(1f, 1f), 0)
    val segs = g.flush()
    assert(segs.head.gid == 42 && segs.head.gaps == 0x4L)
  }

  test("fallback used when no lossy type fits and no lossless is configured") {
    val cfg = GolemmConfig(modelTypes = Seq(PmcMean), epsilonPct = 0.0, lengthBound = 10)
    val g   = new SegmentGenerator(1, 1, 0L, 100, cfg)
    val out = (0 until 6).flatMap(i => g.append(i * 100L, Array(i.toFloat * 1000), 0)) ++ g.flush()
    // strictly increasing values: PMC-Mean at eps=0 fits only single ticks;
    // single-tick PMC segments (4B) beat fallback, both are acceptable — but
    // every point must be covered and reconstruct exactly.
    assert(out.map(_.length).sum == 6)
    val rec = reconstruct(out, 1)
    (0 until 6).foreach(i => assert(rec(i * 100L)(0) == i * 1000f))
  }

  test("best-compression choice prefers Swing over Gorilla on long linear runs") {
    val values = (0 until 49).map(i => Array(q(5.0) + q(0.5) * i)) :+ Array(Float.NaN)
    // feed only the linear part, then flush
    val g = new SegmentGenerator(1, 1, 0L, 100, GolemmConfig(epsilonPct = 0.0, lengthBound = 50))
    values.init.zipWithIndex.foreach { case (v, i) => assert(g.append(i * 100L, v, 0).isEmpty) }
    val segs = g.flush()
    assert(segs.length == 1 && segs.head.mid == Swing.mid)
  }

  test("buffered and bufferedValue expose the window") {
    val g = new SegmentGenerator(1, 2, 0L, 100, GolemmConfig(epsilonPct = 0.0))
    g.append(0L, Array(1f, 2f), 0); g.append(100L, Array(0f, 1f, 2f), 1)
    assert(g.buffered == 2)
    assert((0 until 2).map(g.bufferedValue(_, 0)) == IndexedSeq(1f, 1f))
    assert((0 until 2).map(g.bufferedValue(_, 1)) == IndexedSeq(2f, 2f))
    assert(g.bufferStart == 0L)
  }
}
