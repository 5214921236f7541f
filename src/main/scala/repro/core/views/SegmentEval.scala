package repro.core.views

import repro.core.Types.SeriesAgg
import repro.core.model.ModelType

/** The one place the Segment View's aggregates evaluate a segment's model
  * (paper Section VI-B and VI-C); the Data Point View decodes in the store's
  * reader instead. [[buckets]] gives each of the segment's represented
  * members its aggregates per time bucket, in model space (before the
  * per-series scaling constant): `CUBE_*` ask for the buckets of their
  * interval, and the `*_S` UDAFs for the one bucket of
  * [[TimeCube.Whole]], the whole segment.
  *
  * The UDAFs and `CUBE_*` call the kernel once per member row, so
  * consecutive rows of one segment, and the `SUM_S`/`MIN_S`/`MAX_S` of one
  * query, ask for the same result. A one-entry memo per thread hands it back without
  * evaluating the segment again: a segment is evaluated once per task, not
  * once per member row (Table I, lazy decompression). The memo key is the
  * segment's content — model type, start time, SI, length, member count, the
  * bucket interval, and a private copy of the parameters — never its
  * `(gid, start_time)`, because one thread may read two stores whose
  * segments share those.
  */
object SegmentEval {

  /** Per-bucket aggregates of one segment: `aggs(b)(s)` is member `s`'s
    * aggregate over the ticks of the bucket starting at `starts(b)`.
    */
  final case class Buckets(starts: Array[Long], aggs: Array[Array[SeriesAgg]])

  /** Each member's aggregates per bucket of `interval` that the segment
    * overlaps: the segment is cut at the bucket boundaries and each piece is
    * aggregated on the model (Algorithm 3).
    */
  def buckets(mid: Int, start: Long, end: Long, si: Int, params: Array[Byte],
              nseries: Int, interval: TimeCube.Interval): Buckets = {
    val len = ((end - start) / si).toInt + 1
    val m   = memo.get()
    if (!m.holds(interval, mid, start, si, len, nseries, params)) {
      m.result = null // a failed evaluation must not leave a stale entry behind
      val mt     = ModelType.byMid(mid)
      val starts = scala.collection.mutable.ArrayBuffer.empty[Long]
      val aggs   = scala.collection.mutable.ArrayBuffer.empty[Array[SeriesAgg]]
      var bucket = interval.floor(start)
      while (bucket <= end) {
        val bucketEnd = interval.next(bucket) - 1 // inclusive
        val fromTick  = if (bucket <= start) 0 else (((bucket - start) + si - 1) / si).toInt
        // A bucket past the end stops at the last tick: Whole's bucketEnd − start overflows.
        val toTick    = if (bucketEnd >= end) len - 1 else ((bucketEnd - start) / si).toInt
        if (fromTick <= toTick) {
          starts += bucket
          aggs += mt.aggregate(params, nseries, len, fromTick, toTick)
        }
        bucket = interval.next(bucket)
      }
      m.interval = interval; m.mid = mid; m.start = start; m.si = si; m.len = len
      m.nseries = nseries; m.params = params.clone()
      m.result = Buckets(starts.toArray, aggs.toArray)
    }
    m.result
  }

  /** The last evaluation on this thread and the content it was made from. */
  private final class Memo {
    var interval: TimeCube.Interval = _
    var mid, si, nseries, len       = 0
    var start                       = 0L
    var params: Array[Byte]         = _
    var result: Buckets             = _

    def holds(iv: TimeCube.Interval, m: Int, st: Long, s: Int, l: Int, n: Int, p: Array[Byte]): Boolean =
      result != null && (interval eq iv) && mid == m && start == st && si == s && len == l &&
        nseries == n && java.util.Arrays.equals(params, p)
  }

  private val memo = ThreadLocal.withInitial[Memo](() => new Memo)
}
