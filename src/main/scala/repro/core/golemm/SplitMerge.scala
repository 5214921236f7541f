package repro.core.golemm

import scala.collection.mutable.ArrayBuffer
import repro.core.Types.SegmentRecord
import repro.core.model.ModelType

/** Dynamic splitting and merging of a group during ingestion (paper
  * Section IV-D, Figures 9, Algorithm 2).
  *
  * The manager routes each tick of the full group to one [[GroupCompressor]]
  * per current sub-group. Two heuristics bound the overhead:
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
  */
final class SplitManager(
    gid: Int,
    nMembers: Int,
    si: Int,
    cfg: GolemmConfig,
) {

  /** Counters exposed for the evaluation's overhead measurements. */
  final class Stats {
    var splits: Int           = 0
    var merges: Int           = 0
    var mergeAttempts: Int    = 0
    var splitMergeNanos: Long = 0
  }
  val stats = new Stats

  private final case class Sub(memberIdx: Array[Int], comp: GroupCompressor)

  private val subs = ArrayBuffer(
    Sub(Array.range(0, nMembers), new GroupCompressor(gid, Array.range(0, nMembers), nMembers, si, cfg))
  )

  // Running average of segment compression (points per byte) for the split
  // trigger, and the doubling merge backoff.
  private var ratioSum             = 0.0
  private var ratioCount           = 0L
  private var requiredSegments     = 1L
  private var segmentsSinceAttempt = 0L

  /** Current number of sub-groups (1 = no active split). */
  def subGroupCount: Int = subs.length

  // Every member's bit; the JVM takes shift distances mod 64, so 64 members
  // need the all-ones mask spelled out.
  private val allMembers = if (nMembers == 64) -1L else (1L << nMembers) - 1

  private def ratioOf(seg: SegmentRecord): Double = {
    val present = java.lang.Long.bitCount(~seg.gaps & allMembers)
    val points  = seg.length.toLong * math.max(present, 1)
    points.toDouble / (seg.params.length + SegmentGenerator.MetadataBytes)
  }

  /** Consume the full group's values at tick `ts` (NaN = gap). A sub-group
    * holding every member receives `values` itself, which the caller must
    * not modify afterwards.
    */
  def consume(ts: Long, values: Array[Float]): Seq[SegmentRecord] = {
    require(values.length == nMembers, s"expected $nMembers values, got ${values.length}")
    var out: ArrayBuffer[SegmentRecord] = null
    var toSplit: ArrayBuffer[Sub]       = null
    var k = 0
    while (k < subs.length) {
      val sub  = subs(k)
      // Member lists are sorted, so a full one is the identity.
      val vals = if (sub.memberIdx.length == nMembers) values else sub.memberIdx.map(values)
      val segs = sub.comp.consume(ts, vals)
      if (segs.nonEmpty) {
        if (out == null) out = ArrayBuffer.empty
        out ++= segs
        segmentsSinceAttempt += segs.length
        segs.foreach { s => ratioSum += ratioOf(s); ratioCount += 1 }
        if (cfg.dynamicSplitting && sub.memberIdx.length > 1 && shouldSplit(sub, segs)) {
          if (toSplit == null) toSplit = ArrayBuffer.empty
          toSplit += sub
        }
      }
      k += 1
    }
    if (toSplit != null) {
      val t0 = System.nanoTime()
      toSplit.foreach(sub => out ++= split(sub))
      stats.splitMergeNanos += System.nanoTime() - t0
    }
    if (cfg.dynamicSplitting && subs.length > 1 && segmentsSinceAttempt >= requiredSegments) {
      val t0 = System.nanoTime()
      val merged = tryMerge()
      if (merged.nonEmpty) {
        if (out == null) out = ArrayBuffer.empty
        out ++= merged
      }
      stats.splitMergeNanos += System.nanoTime() - t0
    }
    if (out == null) Nil else out.toSeq
  }

  /** Flush every sub-group (end of stream). */
  def close(): Seq[SegmentRecord] = {
    subs.flatMap(_.comp.close()).toSeq
  }

  private def shouldSplit(sub: Sub, emitted: Seq[SegmentRecord]): Boolean = {
    val avg = if (ratioCount == 0) return false else ratioSum / ratioCount
    val buffered = sub.comp.currentGenerator.exists(_.buffered > 0)
    buffered && emitted.exists(s => ratioOf(s) < avg / cfg.splitFraction)
  }

  // Values v1, v2 are 2ε-compatible if a single model value could represent
  // both within the per-value relative bound.
  private def withinDoubleBound(a: IndexedSeq[Float], b: IndexedSeq[Float]): Boolean = {
    val n = math.min(a.length, b.length)
    var k = 0
    while (k < n) {
      val v1 = a(a.length - n + k).toDouble
      val v2 = b(b.length - n + k).toDouble
      val tol = ModelType.tolerance(v1, cfg.epsilonPct) + ModelType.tolerance(v2, cfg.epsilonPct)
      if (math.abs(v1 - v2) > tol) return false
      k += 1
    }
    true
  }

  // Algorithm 2: partition the sub-group's members by pairwise closeness of
  // their buffered points; gapped members stay grouped together.
  private def split(sub: Sub): Seq[SegmentRecord] = {
    val gen = sub.comp.currentGenerator match {
      case Some(g) if g.buffered > 0 => g
      case _                         => return Nil
    }
    val activePos = sub.comp.activePositions // positions into sub.memberIdx
    val bufferedBy = activePos.zipWithIndex.map { case (pos, ai) =>
      sub.memberIdx(pos) -> gen.bufferedValues(ai)
    }.toMap
    val gapped    = sub.memberIdx.filterNot(bufferedBy.contains)

    val remaining = ArrayBuffer.from(bufferedBy.keys.toSeq.sorted)
    val parts     = ArrayBuffer.empty[Array[Int]]
    while (remaining.nonEmpty) {
      val head = remaining.head
      val part = remaining.filter(m => m == head || withinDoubleBound(bufferedBy(head), bufferedBy(m)))
      parts += part.toArray.sorted
      remaining --= part
    }
    if (gapped.nonEmpty) parts += gapped.sorted

    if (parts.length <= 1) Nil
    else {
      val out = ArrayBuffer.empty[SegmentRecord]
      out ++= sub.comp.close()
      subs -= sub
      parts.foreach { idx =>
        subs += Sub(idx, new GroupCompressor(gid, idx, nMembers, si, cfg))
      }
      stats.splits += parts.length - 1
      requiredSegments = 1
      segmentsSinceAttempt = 0
      out.toSeq
    }
  }

  // Merge sub-groups whose representative series are pairwise 2ε-close over
  // their recent buffered points (one representative per sub-group suffices —
  // the members of a sub-group are correlated, else it would have split).
  private def tryMerge(): Seq[SegmentRecord] = {
    stats.mergeAttempts += 1
    segmentsSinceAttempt = 0

    def repValues(sub: Sub): Option[IndexedSeq[Float]] =
      sub.comp.currentGenerator.flatMap { gen =>
        if (gen.buffered == 0) None
        else Some(gen.bufferedValues(0))
      }

    val reps = subs.map(repValues)
    // Greedy clique merging over sub-groups, mirroring Algorithm 2.
    val groups    = ArrayBuffer.empty[ArrayBuffer[Int]]
    val remaining = ArrayBuffer.from(subs.indices)
    while (remaining.nonEmpty) {
      val head = remaining.head
      val part = remaining.filter { j =>
        j == head || ((reps(head), reps(j)) match {
          case (Some(a), Some(b)) => withinDoubleBound(a, b)
          case _                  => false
        })
      }
      groups += ArrayBuffer.from(part)
      remaining --= part
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
          val members = g.toArray.flatMap(j => subs(j).memberIdx).sorted
          g.foreach(j => out ++= subs(j).comp.close())
          newSubs += Sub(members, new GroupCompressor(gid, members, nMembers, si, cfg))
          stats.merges += g.length - 1
        }
      }
      subs.clear()
      subs ++= newSubs
      requiredSegments = 1
      out.toSeq
    }
  }
}
