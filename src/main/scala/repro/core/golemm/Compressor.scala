package repro.core.golemm

import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.catalyst.InternalRow
import repro.core.Types.{Group, GroupChunk, SegmentRecord}

/** Assembles a group's aligned ticks and feeds them to
  * [[SplitManager]], which runs GOLEMM for the group and counts the
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

  /** A group's aligned ticks in flat arrays, whose lengths grow with the
    * group's points, not with its ticks × members: tick k, for k below
    * `length`, is at `ts(k)`, its present members are the set bits of
    * `present(k)` (bit i for the member at sorted-tid position i; a member
    * with no point at the tick, or with a NaN value, is in a gap there), and
    * their values, in position order, follow those of tick k − 1 in `values`.
    */
  final class Ticks(val length: Int, val ts: Array[Long], val present: Array[Long],
                    val values: Array[Float], val nMembers: Int) {

    /** Each tick as `(ts, one value per member)`, NaN for a member in a gap. */
    def rows: Iterator[(Long, Array[Float])] = new Iterator[(Long, Array[Float])] {
      private var k  = 0
      private var at = 0
      override def hasNext: Boolean = k < Ticks.this.length
      override def next(): (Long, Array[Float]) = {
        val row  = new Array[Float](nMembers)
        java.util.Arrays.fill(row, Float.NaN)
        var rest = present(k)
        while (rest != 0) {
          row(java.lang.Long.numberOfTrailingZeros(rest)) = values(at)
          at += 1
          rest &= rest - 1
        }
        k += 1
        (ts(k - 1), row)
      }
    }
  }

  /** Compress one group.
    *
    * @param gid      group id
    * @param nMembers number of series in the group (sorted-tid order)
    * @param si       sampling interval in ms
    * @param scalings per-member scaling constants C_TS; raw values are divided
    *                 by them before fitting, in place in `ticks.values`, and
    *                 multiplied back at query time (paper Section III-C)
    * @param ticks    the group's aligned ticks. Timestamps must be strictly
    *                 increasing multiples of `si` apart.
    * @return emitted segments plus ingestion stats
    */
  def compressGroup(
      gid: Int,
      nMembers: Int,
      si: Int,
      scalings: Array[Double],
      ticks: Ticks,
      cfg: GolemmConfig,
  ): (Seq[SegmentRecord], GroupStats) = {
    require(scalings.length == nMembers && ticks.nMembers == nMembers,
            "one scaling constant and tick value slot per member required")
    val t0      = System.nanoTime()
    val manager = new SplitManager(gid, nMembers, si, cfg)
    val out     = ArrayBuffer.empty[SegmentRecord]
    val allOne  = scalings.forall(_ == 1.0)
    val values  = ticks.values
    var at = 0
    var k  = 0
    while (k < ticks.length) {
      val present = ticks.present(k)
      if (!allOne) {
        var rest = present
        var i    = at
        while (rest != 0) {
          values(i) = (values(i) / scalings(java.lang.Long.numberOfTrailingZeros(rest))).toFloat
          i += 1
          rest &= rest - 1
        }
      }
      val segs = manager.consume(ticks.ts(k), present, values, at)
      if (segs.nonEmpty) out ++= segs
      at += java.lang.Long.bitCount(present)
      k += 1
    }
    out ++= manager.close()
    (out.toSeq, manager.stats.copy(totalNanos = System.nanoTime() - t0))
  }

  /** [[compressGroup]] of ticks given as `(ts, one value per member)`, NaN
    * for a member in a gap, as [[Ticks.rows]] gives them. The rows become
    * one chunk, NaNs included, so an all-NaN row stays a tick of gaps, and
    * the chunk goes through [[ticksFromChunks]], member positions naming the
    * members.
    */
  def compressGroup(
      gid: Int,
      nMembers: Int,
      si: Int,
      scalings: Array[Double],
      ticks: Iterator[(Long, Array[Float])],
      cfg: GolemmConfig,
  ): (Seq[SegmentRecord], GroupStats) = {
    val aligned = oneChunkTicks(Array.range(0, nMembers), gid) { chunk =>
      ticks.foreach { case (ts, row) =>
        if (row.length != nMembers)
          throw new IllegalArgumentException(s"expected $nMembers values, got ${row.length}")
        var i = 0
        while (i < nMembers) { chunk.add(ts, i.toByte, row(i)); i += 1 }
      }
    }
    compressGroup(gid, nMembers, si, scalings, aligned, cfg)
  }

  /** Points per [[GroupChunk]] at most, so an ingest map task's buffers stay
    * bounded however many points of one group it reads.
    */
  private[core] val ChunkPoints = 1 << 14

  /** The map side of ingest's shuffle, built once on the driver: each point
    * is appended to its group's column buffers, found by binary search in
    * the sorted tids of `groups`. A group's buffers become a [[GroupChunk]]
    * when they hold [[ChunkPoints]] points, and at the end of the input.
    */
  final class Chunker(groups: IndexedSeq[Group]) extends Serializable {
    private val tids: Array[Int] = groups.flatMap(_.tids).toArray.sorted
    /** For `tids(i)`: its group's index in `groups` << 6 | its member position. */
    private val codes: Array[Int] = {
      val code = (for ((g, slot) <- groups.iterator.zipWithIndex; (t, p) <- g.tids.iterator.zipWithIndex)
        yield t -> (slot << 6 | p)).toMap
      tids.map(code)
    }
    private val gids: Array[Int] = groups.map(_.gid).toArray

    /** One input partition's chunks, from rows of an int `tid`, a long `ts`
      * and a float `value`, read as they arrive: Spark may reuse a row
      * object, so none is kept. A point with a null field, or of a tid that
      * is in no group, is rejected.
      */
    def chunks(points: Iterator[InternalRow]): Iterator[GroupChunk] = {
      val bufs = new Array[ChunkBuffer](gids.length)
      def emit(slot: Int) = bufs(slot).take(gids(slot))
      val full = points.flatMap { row =>
        if (row.anyNull) {
          val column = if (row.isNullAt(0)) "tid" else if (row.isNullAt(1)) "ts" else "value"
          throw new IllegalArgumentException(s"a point with a null $column cannot be ingested")
        }
        val tid = row.getInt(0)
        val i   = java.util.Arrays.binarySearch(tids, tid)
        if (i < 0) throw new IllegalArgumentException(s"tid $tid is not a series of this store")
        val slot = codes(i) >>> 6
        if (bufs(slot) == null) bufs(slot) = new ChunkBuffer
        if (bufs(slot).add(row.getLong(1), (codes(i) & 63).toByte, row.getFloat(2)) == ChunkPoints)
          Some(emit(slot))
        else None
      }
      full ++ bufs.indices.iterator.filter(s => bufs(s) != null && bufs(s).n > 0).map(emit)
    }
  }

  /** One group's growable columns: in a [[Chunker]], which takes them at
    * [[ChunkPoints]] points, or one adapter's whole input.
    */
  private final class ChunkBuffer {
    private var ts     = new Array[Long](64)
    private var pos    = new Array[Byte](64)
    private var values = new Array[Float](64)
    var n              = 0

    /** Appends a point and returns the new point count. */
    def add(t: Long, p: Byte, v: Float): Int = {
      if (n == ts.length) {
        ts = java.util.Arrays.copyOf(ts, 2 * n)
        pos = java.util.Arrays.copyOf(pos, 2 * n)
        values = java.util.Arrays.copyOf(values, 2 * n)
      }
      ts(n) = t; pos(n) = p; values(n) = v
      n += 1
      n
    }

    /** The points so far as a chunk; the buffer is then empty. */
    def take(gid: Int): GroupChunk = {
      val c = GroupChunk(gid, java.util.Arrays.copyOf(ts, n), java.util.Arrays.copyOf(pos, n),
                         java.util.Arrays.copyOf(values, n))
      n = 0
      c
    }
  }

  /** Build the aligned ticks of a group from per-point rows `(ts, tid,
    * value)` in any order, as [[Ticks.rows]]. `tids` must be the group's
    * members in sorted order; rows with tids outside the group are rejected.
    * `gid` only names the group in errors.
    */
  def ticksFromSortedPoints(
      tids: IndexedSeq[Int],
      rows: Iterator[(Long, Int, Float)],
      gid: Int = -1,
  ): Iterator[(Long, Array[Float])] = {
    val members = tids.toArray
    oneChunkTicks(members, gid) { chunk =>
      rows.foreach { case (t, tid, v) =>
        val p = java.util.Arrays.binarySearch(members, tid)
        if (p < 0) sys.error(s"tid $tid is not a member of group $gid")
        chunk.add(t, p.toByte, v)
      }
    }.rows
  }

  /** The ticks of the points that `fill` adds to one chunk of group `gid`,
    * whose members are `tids`, sorted: the two row adapters above, over
    * [[ticksFromChunks]].
    */
  private def oneChunkTicks(tids: Array[Int], gid: Int)(fill: ChunkBuffer => Unit): Ticks = {
    val chunk = new ChunkBuffer
    fill(chunk)
    ticksFromChunks(tids, Seq(chunk.take(gid)), gid)
  }

  /** The tick assembler: aligns the points of group `gid`, given as chunks
    * in any order, into [[Ticks]] of ascending timestamp. `tids` are the
    * group's members, sorted; a chunk's `pos` indexes them. Each point
    * becomes the key `((ts - tsMin) << 6) | pos`, and one stable natural
    * merge sort orders keys and values together; it is near linear because
    * each member's points mostly arrive as a run in ts order. The sorted
    * arrays then become the ticks in place: a tick's values are its points'
    * values in member order, less the NaNs, which are gaps. A second point
    * for the same `(tid, ts)` is rejected, and so is a group whose points
    * span 2^57 ms or more, which the key cannot hold.
    */
  def ticksFromChunks(tids: Array[Int], chunks: Seq[GroupChunk], gid: Int): Ticks = {
    val n = chunks.iterator.map(_.ts.length).sum
    var tsMin = Long.MaxValue
    var tsMax = Long.MinValue
    chunks.foreach { c =>
      var i = 0
      while (i < c.ts.length) { tsMin = math.min(tsMin, c.ts(i)); tsMax = math.max(tsMax, c.ts(i)); i += 1 }
    }
    val span = tsMax - tsMin // negative if it overflows
    if (n > 0 && (span < 0 || span >= (1L << 57)))
      throw new IllegalArgumentException(
        s"group $gid spans ${BigInt(tsMax) - tsMin} ms, from ts $tsMin to $tsMax; " +
          "a group's points in one ingest must span less than 2^57 ms")
    val keys = new Array[Long](n)
    val vals = new Array[Float](n)
    var k = 0
    chunks.foreach { c =>
      var i = 0
      while (i < c.ts.length) {
        keys(k) = ((c.ts(i) - tsMin) << 6) | c.pos(i)
        vals(k) = c.values(i)
        i += 1
        k += 1
      }
    }
    val (sorted, sortedVals) = sortByKey(keys, vals)

    // The ticks overwrite the sorted arrays in place: tick t's timestamp goes
    // to `sorted(t)` and its kept values to the front of `sortedVals`, both
    // behind the point being read, since t ticks hold at least t points.
    val present = new Array[Long](n)
    var ticks   = 0
    var kept    = 0
    var i       = 0
    while (i < n) {
      val tick = sorted(i) >>> 6
      var mask = 0L
      var prev = -1L
      while (i < n && (sorted(i) >>> 6) == tick) {
        val key = sorted(i)
        val pos = (key & 63).toInt
        if (key == prev)
          throw new IllegalArgumentException(
            s"duplicate point in group $gid: tid ${tids(pos)} at ts ${tsMin + tick}")
        prev = key
        if (!sortedVals(i).isNaN) {
          mask |= 1L << pos
          sortedVals(kept) = sortedVals(i)
          kept += 1
        }
        i += 1
      }
      sorted(ticks) = tsMin + tick
      present(ticks) = mask
      ticks += 1
    }
    new Ticks(ticks, sorted, present, sortedVals, tids.length)
  }

  /** Sorts `keys` ascending and moves `vals` with them: a stable natural
    * merge sort, whose passes merge neighbouring ascending runs, so r runs
    * cost log2(r) passes. Returns the arrays that hold the result: the inputs
    * or scratch arrays of the same length.
    */
  private def sortByKey(keys: Array[Long], vals: Array[Float]): (Array[Long], Array[Float]) = {
    val n = keys.length
    var bounds = { // run starts, then n
      val b = Array.newBuilder[Int]
      b += 0
      var i = 1
      while (i < n) { if (keys(i) < keys(i - 1)) b += i; i += 1 }
      b += n
      b.result()
    }
    var (src, srcVals) = (keys, vals)
    var (dst, dstVals) = (null: Array[Long], null: Array[Float])
    while (bounds.length > 2) {
      if (dst == null) { dst = new Array[Long](n); dstVals = new Array[Float](n) }
      val next = Array.newBuilder[Int]
      var r = 0
      while (r < bounds.length - 1) {
        val lo  = bounds(r)
        val mid = bounds(r + 1)
        val hi  = if (r + 2 < bounds.length) bounds(r + 2) else mid
        var i = lo
        var j = mid
        var k = lo
        while (i < mid && j < hi) {
          if (src(j) < src(i)) { dst(k) = src(j); dstVals(k) = srcVals(j); j += 1 }
          else { dst(k) = src(i); dstVals(k) = srcVals(i); i += 1 }
          k += 1
        }
        System.arraycopy(src, i, dst, k, mid - i)
        System.arraycopy(srcVals, i, dstVals, k, mid - i)
        k += mid - i
        System.arraycopy(src, j, dst, k, hi - j)
        System.arraycopy(srcVals, j, dstVals, k, hi - j)
        next += lo
        r += 2
      }
      next += n
      bounds = next.result()
      val (s, sv) = (src, srcVals)
      src = dst; srcVals = dstVals
      dst = s; dstVals = sv
    }
    (src, srcVals)
  }
}
