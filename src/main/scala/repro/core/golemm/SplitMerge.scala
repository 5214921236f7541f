package repro.core.golemm

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import repro.core.Types.SegmentRecord
import repro.core.model.ModelType

/** GOLEMM for one group: gaps (paper Figure 5) and dynamic splitting and
  * merging (Section IV-D, Figure 9, Algorithm 2).
  *
  * The group's members are partitioned into sub-groups, each fitting its own
  * run of ticks with a [[SegmentGenerator]]. A sub-group's run ends whenever
  * its set of present members changes (a member absent from a tick is ⊥:
  * the series is in a gap at that tick) or the ticks stop being contiguous; the
  * next run's `Gaps` bitmask names every group member it does not represent,
  * so each emitted segment covers a static set of series. Two heuristics
  * bound the overhead of re-partitioning:
  *
  *  - *Split*: when a freshly emitted segment's compression ratio falls below
  *    `1/splitFraction` of the running average and data points are buffered,
  *    the sub-group is re-partitioned by Algorithm 2 — series whose buffered
  *    points are pairwise within twice the error bound stay together;
  *    members currently in a gap are kept grouped.
  *  - *Merge*: only attempted once per tick when every sub-group has received
  *    the tick, comparing ONE representative series per sub-group (the rest
  *    are correlated with it by construction); a failed attempt doubles the
  *    number of segments required before the next one.
  *
  * The manager also counts the points it consumes and the segments it
  * returns for [[stats]].
  */
final class SplitManager(
    gid: Int,
    nMembers: Int,
    si: Int,
    cfg: GolemmConfig,
) {
  require(nMembers <= 64, s"group of $nMembers series exceeds the 64-bit gap bitmask")

  // Every member's bit; the JVM takes shift distances mod 64, so 64 members
  // need the all-ones mask spelled out.
  private val allMembers = if (nMembers == 64) -1L else (1L << nMembers) - 1

  private var points, segments, paramBytes = 0L
  private val perMid                        = mutable.HashMap.empty[Int, Long]
  private var splits, merges, mergeAttempts = 0
  private var splitMergeNanos               = 0L

  /** The counters so far; `totalNanos` is left to the caller. */
  def stats: Compressor.GroupStats =
    Compressor.GroupStats(gid, points, segments, paramBytes, perMid.toMap, splits, merges,
                          mergeAttempts, splitMergeNanos, totalNanos = 0L)

  /** A sub-group: its `members` and, during a run, the `present` ones and
    * the run's generator (null between runs). Both member arrays hold
    * sorted group positions; `mask` and `presentMask` hold the same sets as
    * bits.
    */
  private final class Sub(val members: Array[Int]) {
    private val mask          = members.foldLeft(0L)(_ | 1L << _)
    private val gathered      = new Array[Float](members.length)
    private var presentMask   = 0L
    var present: Array[Int]   = Array.emptyIntArray
    var gen: SegmentGenerator = _
    private var lastTs        = Long.MinValue

    def buffered: Int = if (gen == null) 0 else gen.buffered

    /** Consume the group's tick: `tick` is its present members as bits and
      * `values(offset)` onwards their values, in member order. When the
      * sub-group's present members are exactly the tick's, the generator
      * copies their values from `values`; otherwise they are gathered first.
      */
    def consume(ts: Long, tick: Long, values: Array[Float], offset: Int): Seq[SegmentRecord] = {
      val here     = tick & mask
      val nPresent = java.lang.Long.bitCount(here)
      points += nPresent
      // Every member gapped: close the run; the next segment starts later.
      if (nPresent == 0) return close()

      var closed: Seq[SegmentRecord] = Nil
      if (gen == null || here != presentMask || ts != lastTs + si) {
        // The present set changed or the ticks are not contiguous: new run.
        closed = close()
        presentMask = here
        present = members.filter(m => (here & 1L << m) != 0)
        gen = new SegmentGenerator(gid, nPresent, allMembers & ~here, si, cfg)
      }
      val emitted =
        if (here == tick) gen.append(ts, values, offset)
        else {
          // The tick's values are in member order: walk its members, keeping
          // this sub-group's.
          var rest = tick
          var at   = offset
          var j    = 0
          while (rest != 0) {
            val bit = rest & -rest
            if ((here & bit) != 0) { gathered(j) = values(at); j += 1 }
            at += 1
            rest ^= bit
          }
          gen.append(ts, gathered, 0)
        }
      lastTs = ts
      if (closed.isEmpty) emitted else if (emitted.isEmpty) closed else closed ++ emitted
    }

    /** Flush and close the current run (end of stream or restructuring). */
    def close(): Seq[SegmentRecord] =
      if (gen == null) Nil
      else {
        val segs = gen.flush()
        gen = null
        presentMask = 0L
        present = Array.emptyIntArray
        segs
      }
  }

  private val subs = ArrayBuffer(new Sub(Array.range(0, nMembers)))

  // Running average of segment compression (points per byte) for the split
  // trigger, and the doubling merge backoff.
  private var ratioSum             = 0.0
  private var ratioCount           = 0L
  private var requiredSegments     = 1L
  private var segmentsSinceAttempt = 0L

  /** Current number of sub-groups (1 = no active split). */
  def subGroupCount: Int = subs.length

  private def ratioOf(seg: SegmentRecord): Double = {
    val present = java.lang.Long.bitCount(~seg.gaps & allMembers)
    val points  = seg.length.toLong * math.max(present, 1)
    points.toDouble / (seg.params.length + SegmentGenerator.MetadataBytes)
  }

  // Count the segments handed to the caller.
  private def counted(segs: Seq[SegmentRecord]): Seq[SegmentRecord] = {
    segs.foreach { s =>
      segments += 1
      paramBytes += s.params.length
      perMid(s.mid) = perMid.getOrElse(s.mid, 0L) + 1
    }
    segs
  }

  /** Consume the group's tick at `ts`: `tick` holds its present members as
    * bits (bit i for group position i; an absent member is in a gap), and
    * `values(offset)` onwards their values in position order. The values are
    * copied before the call returns.
    */
  def consume(ts: Long, tick: Long, values: Array[Float], offset: Int): Seq[SegmentRecord] = {
    if ((tick & ~allMembers) != 0)
      throw new IllegalArgumentException(s"tick ${tick.toBinaryString} names a member beyond $nMembers")
    var out: ArrayBuffer[SegmentRecord] = null
    var toSplit: ArrayBuffer[Sub]       = null
    var k = 0
    while (k < subs.length) {
      val sub  = subs(k)
      val segs = sub.consume(ts, tick, values, offset)
      if (segs.nonEmpty) {
        if (out == null) out = ArrayBuffer.empty
        out ++= segs
        segmentsSinceAttempt += segs.length
        segs.foreach { s => ratioSum += ratioOf(s); ratioCount += 1 }
        if (cfg.dynamicSplitting && sub.members.length > 1 && shouldSplit(sub, segs)) {
          if (toSplit == null) toSplit = ArrayBuffer.empty
          toSplit += sub
        }
      }
      k += 1
    }
    if (toSplit != null) {
      val t0 = System.nanoTime()
      toSplit.foreach(sub => out ++= split(sub))
      splitMergeNanos += System.nanoTime() - t0
    }
    if (cfg.dynamicSplitting && subs.length > 1 && segmentsSinceAttempt >= requiredSegments) {
      val t0 = System.nanoTime()
      val merged = tryMerge()
      if (merged.nonEmpty) {
        if (out == null) out = ArrayBuffer.empty
        out ++= merged
      }
      splitMergeNanos += System.nanoTime() - t0
    }
    if (out == null) Nil else counted(out.toSeq)
  }

  /** Flush every sub-group (end of stream). */
  def close(): Seq[SegmentRecord] = counted(subs.flatMap(_.close()).toSeq)

  private def shouldSplit(sub: Sub, emitted: Seq[SegmentRecord]): Boolean = {
    val avg = if (ratioCount == 0) return false else ratioSum / ratioCount
    sub.buffered > 0 && emitted.exists(s => ratioOf(s) < avg / cfg.splitFraction)
  }

  // Series a of generator ga and series b of gb are 2ε-compatible if, over
  // the ticks both buffer (the newest ones), a single model value could
  // represent both of each tick's values within the per-value relative bound.
  private def withinDoubleBound(ga: SegmentGenerator, a: Int, gb: SegmentGenerator, b: Int): Boolean = {
    val n = math.min(ga.buffered, gb.buffered)
    var k = 0
    while (k < n) {
      val v1 = ga.bufferedValue(ga.buffered - n + k, a).toDouble
      val v2 = gb.bufferedValue(gb.buffered - n + k, b).toDouble
      val tol = ModelType.tolerance(v1, cfg.epsilonPct) + ModelType.tolerance(v2, cfg.epsilonPct)
      if (math.abs(v1 - v2) > tol) return false
      k += 1
    }
    true
  }

  // Algorithm 2's greedy partition of the distinct `items`: the first one
  // left and each other one left that `joins` it form the next part.
  private def partition(items: Array[Int])(joins: (Int, Int) => Boolean): ArrayBuffer[Array[Int]] = {
    val remaining = ArrayBuffer.from(items)
    val parts     = ArrayBuffer.empty[Array[Int]]
    while (remaining.nonEmpty) {
      val head = remaining.head
      val part = remaining.filter(m => m == head || joins(head, m))
      parts += part.toArray
      remaining --= part
    }
    parts
  }

  // Algorithm 2: partition the sub-group's members by pairwise closeness of
  // their buffered points; gapped members stay grouped together.
  private def split(sub: Sub): Seq[SegmentRecord] = {
    if (sub.buffered == 0) return Nil
    val gen    = sub.gen
    // A present member's series index in the generator.
    val column = sub.present.zipWithIndex.toMap
    val gapped = sub.members.filterNot(column.contains)

    val parts = partition(sub.present)((head, m) => withinDoubleBound(gen, column(head), gen, column(m)))
    if (gapped.nonEmpty) parts += gapped

    if (parts.length <= 1) Nil
    else {
      val closed = sub.close()
      subs -= sub
      parts.foreach(idx => subs += new Sub(idx))
      splits += parts.length - 1
      requiredSegments = 1
      segmentsSinceAttempt = 0
      closed
    }
  }

  // Merge sub-groups whose representative series are pairwise 2ε-close over
  // their recent buffered points (one representative per sub-group suffices —
  // the members of a sub-group are correlated, else it would have split).
  private def tryMerge(): Seq[SegmentRecord] = {
    mergeAttempts += 1
    segmentsSinceAttempt = 0

    // Each sub-group's representative: its first present series, if any.
    val reps = subs.map(sub => if (sub.buffered == 0) None else Some(sub.gen))
    // Greedy clique merging over sub-groups, mirroring Algorithm 2.
    val groups = partition(subs.indices.toArray) { (head, j) =>
      (reps(head), reps(j)) match {
        case (Some(a), Some(b)) => withinDoubleBound(a, 0, b, 0)
        case _                  => false
      }
    }

    if (groups.length == subs.length) {
      // Failed attempt: back off by doubling (paper Section IV-D), capped to
      // avoid overflow on pathological streams.
      requiredSegments = math.min(requiredSegments * 2, 1L << 30)
      Nil
    } else {
      val out     = ArrayBuffer.empty[SegmentRecord]
      val newSubs = ArrayBuffer.empty[Sub]
      groups.foreach { g =>
        if (g.length == 1) newSubs += subs(g.head)
        else {
          val members = g.flatMap(j => subs(j).members).sorted
          g.foreach(j => out ++= subs(j).close())
          newSubs += new Sub(members)
          merges += g.length - 1
        }
      }
      subs.clear()
      subs ++= newSubs
      requiredSegments = 1
      out.toSeq
    }
  }
}
