package repro.core.golemm

import scala.collection.mutable.ArrayBuffer
import repro.core.Types.{GroupPoint, SegmentRecord}

/** Drives GOLEMM over one group's aligned tick stream and collects the
  * statistics the evaluation reports (segment/model-type counts, dynamic
  * split/merge overhead).
  */
object Compressor {

  /** Per-group ingestion statistics. */
  final case class GroupStats(
      gid: Int,
      points: Long,
      segments: Long,
      paramBytes: Long,
      perMid: Map[Int, Long],
      splits: Int,
      merges: Int,
      mergeAttempts: Int,
      splitMergeNanos: Long,
      totalNanos: Long,
  ) {
    def merge(o: GroupStats): GroupStats = GroupStats(
      gid = -1,
      points = points + o.points,
      segments = segments + o.segments,
      paramBytes = paramBytes + o.paramBytes,
      perMid = (perMid.keySet ++ o.perMid.keySet)
        .map(k => k -> (perMid.getOrElse(k, 0L) + o.perMid.getOrElse(k, 0L))).toMap,
      splits = splits + o.splits,
      merges = merges + o.merges,
      mergeAttempts = mergeAttempts + o.mergeAttempts,
      splitMergeNanos = splitMergeNanos + o.splitMergeNanos,
      totalNanos = totalNanos + o.totalNanos,
    )
  }

  object GroupStats {
    val zero: GroupStats = GroupStats(-1, 0, 0, 0, Map.empty, 0, 0, 0, 0, 0)
  }

  /** Compress one group.
    *
    * @param gid      group id
    * @param nMembers number of series in the group (sorted-tid order)
    * @param si       sampling interval in ms
    * @param scalings per-member scaling constants C_TS; raw values are divided
    *                 by them before fitting and multiplied back at query time
    *                 (paper Section III-C)
    * @param ticks    aligned tick stream: (timestamp, one value per member,
    *                 NaN = the member is in a gap). Timestamps must be
    *                 strictly increasing multiples of `si` apart.
    * @return emitted segments plus ingestion stats
    */
  def compressGroup(
      gid: Int,
      nMembers: Int,
      si: Int,
      scalings: Array[Double],
      ticks: Iterator[(Long, Array[Float])],
      cfg: GolemmConfig,
  ): (Seq[SegmentRecord], GroupStats) = {
    require(scalings.length == nMembers, "one scaling constant per member required")
    val t0      = System.nanoTime()
    val manager = new SplitManager(gid, nMembers, si, cfg)
    val out     = ArrayBuffer.empty[SegmentRecord]
    var points  = 0L
    val allOne  = scalings.forall(_ == 1.0)

    ticks.foreach { case (ts, values) =>
      val scaled =
        if (allOne) values
        else {
          val v = new Array[Float](nMembers)
          var i = 0
          while (i < nMembers) {
            v(i) = if (values(i).isNaN) Float.NaN else (values(i) / scalings(i)).toFloat
            i += 1
          }
          v
        }
      var i = 0
      while (i < nMembers) { if (!scaled(i).isNaN) points += 1; i += 1 }
      out ++= manager.consume(ts, scaled)
    }
    out ++= manager.close()

    val perMid = out.groupBy(_.mid).map { case (m, ss) => m -> ss.length.toLong }
    val stats = GroupStats(
      gid = gid,
      points = points,
      segments = out.length,
      paramBytes = out.iterator.map(_.params.length.toLong).sum,
      perMid = perMid,
      splits = manager.stats.splits,
      merges = manager.stats.merges,
      mergeAttempts = manager.stats.mergeAttempts,
      splitMergeNanos = manager.stats.splitMergeNanos,
      totalNanos = System.nanoTime() - t0,
    )
    (out.toSeq, stats)
  }

  /** Build the aligned tick stream for a group from per-point rows sorted by
    * (ts, tid). `tids` must be the group's members in sorted order; rows with
    * tids outside the group, and a second point for the same `(tid, ts)`, are
    * rejected. Ticks missing a member get NaN. `gid` only names the group in
    * those errors.
    */
  def ticksFromSortedPoints(
      tids: IndexedSeq[Int],
      rows: Iterator[(Long, Int, Float)],
      gid: Int = -1,
  ): Iterator[(Long, Array[Float])] =
    ticksFromSortedPoints(tids.toArray,
                          rows.map { case (ts, tid, v) => GroupPoint(gid, ts, tid, v) }.buffered, gid)

  /** The tick assembler: consumes the points of group `gid` from the head of
    * `points`, sorted by (ts, tid), and stops before the first point of
    * another group. `tids` are the group's members, sorted; a member's
    * position is found by binary search. Errors as above.
    */
  def ticksFromSortedPoints(
      tids: Array[Int],
      points: BufferedIterator[GroupPoint],
      gid: Int,
  ): Iterator[(Long, Array[Float])] =
    new Iterator[(Long, Array[Float])] {
      override def hasNext: Boolean = points.hasNext && points.head.gid == gid
      override def next(): (Long, Array[Float]) = {
        val ts     = points.head.ts
        val values = new Array[Float](tids.length)
        java.util.Arrays.fill(values, Float.NaN)
        var prev   = -1
        while (hasNext && points.head.ts == ts) {
          val p   = points.next()
          val pos = java.util.Arrays.binarySearch(tids, p.tid)
          if (pos < 0) sys.error(s"tid ${p.tid} is not a member of group $gid")
          if (pos == prev)
            throw new IllegalArgumentException(s"duplicate point in group $gid: tid ${p.tid} at ts $ts")
          values(pos) = p.value
          prev = pos
        }
        (ts, values)
      }
    }
}
