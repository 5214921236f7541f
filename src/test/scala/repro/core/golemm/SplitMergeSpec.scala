package repro.core.golemm

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Types.SegmentRecord
import repro.core.model.ModelType

class SplitMergeSpec extends AnyFunSuite {

  private val Q = 1024.0f
  private def q(x: Double): Float = Math.round(x * Q) / Q

  private def cfg(split: Boolean = true, eps: Double = 10.0) =
    GolemmConfig(epsilonPct = eps, lengthBound = 50, dynamicSplitting = split)

  /** Feed `m` the group's tick at `ts` as one value per member, NaN = gap. */
  private def consume(m: SplitManager, ts: Long, values: Array[Float]): Seq[SegmentRecord] = {
    val present = values.indices.filterNot(i => values(i).isNaN)
    m.consume(ts, present.foldLeft(0L)((mask, i) => mask | 1L << i), present.map(values).toArray, 0)
  }

  /** Reconstruct (memberIdx -> ts -> value) from emitted segments. */
  private def reconstruct(segs: Seq[SegmentRecord], nMembers: Int): Map[(Int, Long), Float] = {
    val out = collection.mutable.Map.empty[(Int, Long), Float]
    segs.foreach { s =>
      val present = (0 until nMembers).filter(m => (s.gaps & (1L << m)) == 0)
      val dec     = ModelType.byMid(s.mid).decode(s.params, present.length, s.length)
      for (t <- 0 until s.length; (m, si2) <- present.zipWithIndex)
        out((m, s.startTime + t.toLong * s.si)) = dec(t * present.length + si2)
    }
    out.toMap
  }

  test("correlated group never splits") {
    val m = new SplitManager(1, 3, 100, cfg())
    val segs = (0 until 500).flatMap { i =>
      val v = q(100.0 + (i % 30))
      consume(m, i * 100L, Array(v, v, v))
    } ++ m.close()
    assert(m.subGroupCount == 1)
    assert(m.stats.splits == 0)
    assert(segs.map(s => s.length.toLong * 3).sum == 1500)
  }

  test("diverging series trigger a split (Figure 9)") {
    val m = new SplitManager(1, 2, 100, cfg())
    var segs = Seq.empty[SegmentRecord]
    // phase 1: correlated constants
    (0 until 100).foreach(i => segs ++= consume(m, i * 100L, Array(100f, 100f)))
    // phase 2: series 1 diverges far outside 2*eps
    val rng = new scala.util.Random(3)
    (100 until 400).foreach { i =>
      val v0 = q(100.0 + rng.nextGaussian())
      val v1 = q(5000.0 + 200.0 * rng.nextGaussian())
      segs ++= consume(m, i * 100L, Array(v0, v1))
    }
    segs ++= m.close()
    assert(m.stats.splits >= 1, s"expected a split, stats=${m.stats.splits}")
    assert(m.subGroupCount >= 2)
    // every point still covered exactly
    val rec = reconstruct(segs, 2)
    assert(rec.keySet.count(_._1 == 0) == 400)
    assert(rec.keySet.count(_._1 == 1) == 400)
  }

  test("split groups merge again when re-correlated") {
    val m = new SplitManager(1, 2, 100, cfg())
    var segs = Seq.empty[SegmentRecord]
    val rng  = new scala.util.Random(5)
    (0 until 100).foreach(i => segs ++= consume(m, i * 100L, Array(100f, 100f)))
    (100 until 300).foreach { i =>
      segs ++= consume(m, i * 100L, Array(q(100 + rng.nextGaussian()), q(4000 + 100 * rng.nextGaussian())))
    }
    val splitCount = m.stats.splits
    // re-correlate for long enough that a merge attempt fires
    (300 until 900).foreach(i => segs ++= consume(m, i * 100L, Array(100f, 100f)))
    segs ++= m.close()
    if (splitCount >= 1) {
      assert(m.stats.merges >= 1, s"expected a merge after re-correlation (attempts=${m.stats.mergeAttempts})")
      assert(m.subGroupCount == 1)
    }
    val rec = reconstruct(segs, 2)
    assert(rec.keySet.count(_._1 == 0) == 900 && rec.keySet.count(_._1 == 1) == 900)
  }

  test("dynamicSplitting=false never splits") {
    val m = new SplitManager(1, 2, 100, cfg(split = false))
    val rng = new scala.util.Random(7)
    (0 until 300).foreach { i =>
      consume(m, i * 100L, Array(q(100 + rng.nextGaussian()), q(9000 + 500 * rng.nextGaussian())))
    }
    m.close()
    assert(m.stats.splits == 0 && m.subGroupCount == 1)
  }

  test("merge backoff doubles after failed attempts") {
    val m = new SplitManager(1, 2, 100, cfg())
    var segs = Seq.empty[SegmentRecord]
    (0 until 80).foreach(i => segs ++= consume(m, i * 100L, Array(50f, 50f)))
    val rng = new scala.util.Random(11)
    (80 until 2000).foreach { i =>
      segs ++= consume(m, i * 100L, Array(q(50 + rng.nextGaussian()), q(7000 + 300 * rng.nextGaussian())))
    }
    m.close()
    if (m.stats.splits >= 1) {
      // while the series stay uncorrelated every attempt fails
      assert(m.stats.merges == 0)
      // backoff bounds the number of attempts well below the segment count
      assert(m.stats.mergeAttempts <= 64, s"attempts=${m.stats.mergeAttempts}")
    }
  }

  test("split/merge overhead is measured") {
    val m = new SplitManager(1, 2, 100, cfg())
    val rng = new scala.util.Random(13)
    (0 until 100).foreach(i => consume(m, i * 100L, Array(10f, 10f)))
    (100 until 400).foreach { i =>
      consume(m, i * 100L, Array(q(10 + 0.1 * rng.nextGaussian()), q(6000 + 250 * rng.nextGaussian())))
    }
    m.close()
    if (m.stats.splits + m.stats.mergeAttempts > 0) assert(m.stats.splitMergeNanos > 0)
  }

  test("gapped members stay grouped through a split") {
    val m = new SplitManager(1, 3, 100, cfg())
    var segs = Seq.empty[SegmentRecord]
    (0 until 100).foreach(i => segs ++= consume(m, i * 100L, Array(20f, 20f, 20f)))
    val rng = new scala.util.Random(17)
    // member 2 in a gap while 0 and 1 diverge
    (100 until 400).foreach { i =>
      segs ++= consume(m, i * 100L,
        Array(q(20 + 0.1 * rng.nextGaussian()), q(8000 + 400 * rng.nextGaussian()), Float.NaN))
    }
    segs ++= m.close()
    val rec = reconstruct(segs, 3)
    assert(rec.keySet.count(_._1 == 0) == 400)
    assert(rec.keySet.count(_._1 == 1) == 400)
    assert(rec.keySet.count(_._1 == 2) == 100) // only the pre-gap points
  }

  test("the split trigger counts every present member of a 64-member group") {
    // Phase 1: all members present and constant, one long segment. Phase 2:
    // only member 0 present, in 50-tick steps: short segments of one series,
    // whose points per byte fall far below phase 1's, so the gapped members
    // split off. A 64-member group must do what a 63-member one does.
    def run(n: Int): (Int, Int) = {
      val m = new SplitManager(1, n, 100, cfg())
      val segs = (0 until 200).flatMap(i => consume(m, i * 100L, Array.fill(n)(100f))) ++
        (200 until 600).flatMap { i =>
          val v = Array.fill(n)(Float.NaN)
          v(0) = 100f * (1 + (i - 200) / 50)
          consume(m, i * 100L, v)
        } ++ m.close()
      val rec = reconstruct(segs, n)
      assert(rec.keySet.count(_._1 == 0) == 600 && rec.size == 200 * n + 400)
      (m.stats.splits, m.subGroupCount)
    }
    val at63 = run(63)
    assert(at63._1 >= 1)
    assert(run(64) == at63)
  }

  // Gap runs (paper Figure 5), driven with dynamic splitting off.

  private def gapCfg = GolemmConfig(epsilonPct = 0.0, lengthBound = 50, dynamicSplitting = false)

  test("no gaps: one run, gaps bitmask 0") {
    val m = new SplitManager(1, 2, 100, gapCfg)
    val segs = (0 until 20).flatMap(i => consume(m, i * 100L, Array(5f, 5f))) ++ m.close()
    assert(segs.nonEmpty && segs.forall(_.gaps == 0L))
    assert(segs.map(_.length).sum == 20)
  }

  test("a gap in one series starts a new segment with its bit set (Figure 5)") {
    val m = new SplitManager(1, 3, 100, gapCfg)
    val out = collection.mutable.ArrayBuffer.empty[SegmentRecord]
    (0 until 10).foreach(i => out ++= consume(m, i * 100L, Array(1f, 1f, 1f)))
    (10 until 20).foreach(i => out ++= consume(m, i * 100L, Array(1f, Float.NaN, 1f)))
    (20 until 30).foreach(i => out ++= consume(m, i * 100L, Array(1f, 1f, 1f)))
    out ++= m.close()
    val masks = out.map(_.gaps).distinct.sorted
    assert(masks == Seq(0L, 2L)) // bit 1 set while series 1 gapped
    // ticks 10-19 must only be covered by mask-2 segments
    val gapSegs = out.filter(_.gaps == 2L)
    assert(gapSegs.map(_.length).sum == 10)
    assert(gapSegs.map(_.startTime).min == 1000L && gapSegs.map(_.endTime).max == 1900L)
  }

  test("all series gapped: no segment spans the hole") {
    val m = new SplitManager(1, 1, 100, gapCfg)
    val out = collection.mutable.ArrayBuffer.empty[SegmentRecord]
    (0 until 5).foreach(i => out ++= consume(m, i * 100L, Array(2f)))
    (5 until 8).foreach(i => out ++= consume(m, i * 100L, Array(Float.NaN)))
    (8 until 12).foreach(i => out ++= consume(m, i * 100L, Array(2f)))
    out ++= m.close()
    assert(out.length == 2)
    assert(out(0).startTime == 0L && out(0).endTime == 400L)
    assert(out(1).startTime == 800L && out(1).endTime == 1100L)
  }

  test("non-contiguous timestamps force a new run") {
    val m = new SplitManager(1, 1, 100, gapCfg)
    val out = collection.mutable.ArrayBuffer.empty[SegmentRecord]
    out ++= consume(m, 0L, Array(3f))
    out ++= consume(m, 100L, Array(3f))
    out ++= consume(m, 500L, Array(3f)) // hole: rows missing entirely
    out ++= m.close()
    assert(out.map(s => (s.startTime, s.endTime)) == Seq((0L, 100L), (500L, 500L)))
  }

  test("segment values reconstruct only the present series") {
    val m = new SplitManager(1, 2, 100, gapCfg)
    val out = collection.mutable.ArrayBuffer.empty[SegmentRecord]
    (0 until 6).foreach(i => out ++= consume(m, i * 100L, Array(8f, Float.NaN)))
    out ++= m.close()
    val s = out.head
    assert(s.gaps == 2L)
    val present = java.lang.Long.bitCount(~s.gaps & 0x3L)
    val dec     = ModelType.byMid(s.mid).decode(s.params, present, s.length)
    assert(dec.forall(_ == 8f))
  }

  test("group larger than 64 is rejected") {
    intercept[IllegalArgumentException] {
      new SplitManager(1, 65, 100, gapCfg)
    }
  }

  test("a gap inside a split-off sub-group flags every member it does not hold") {
    // Member 2 diverges until the group splits into {0, 1} and {2}; then
    // member 1 is in a gap for 10 ticks, so the {0, 1} sub-group emits
    // segments of member 0 alone.
    val m    = new SplitManager(1, 3, 100, cfg(eps = 0.0))
    val rng  = new scala.util.Random(19)
    val sent = collection.mutable.Map.empty[(Int, Long), Float]
    val out  = collection.mutable.ArrayBuffer.empty[(Boolean, SegmentRecord)] // (after the split, segment)
    def feed(ts: Long, v: Array[Float]): Unit = {
      val afterSplit = m.stats.splits > 0
      v.indices.filterNot(k => v(k).isNaN).foreach(k => sent((k, ts)) = v(k))
      out ++= consume(m, ts, v).map(afterSplit -> _)
    }
    var i = 0
    while (i < 100) { feed(i * 100L, Array(20f, 20f, 20f)); i += 1 }
    while (m.stats.splits == 0 && i < 2000) {
      feed(i * 100L, Array(20f, 20f, q(8000 + 400 * rng.nextGaussian()))); i += 1
    }
    assert(m.stats.splits >= 1, "member 2's divergence never split the group")
    (0 until 60).foreach { k =>
      val ts = (i + k) * 100L
      val v2 = q(8000 + 400 * rng.nextGaussian())
      feed(ts, if (k >= 20 && k < 30) Array(20f, Float.NaN, v2) else Array(20f, 20f, v2))
    }
    out ++= m.close().map(true -> _)
    val masks = out.collect { case (true, s) => s.gaps }.toSet
    assert(masks == Set(3L, 4L, 6L), s"masks after the split: $masks")
    assert(reconstruct(out.map(_._2).toSeq, 3) == sent)
  }
}
