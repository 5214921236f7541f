package repro.core.views

import repro.core.Types.SeriesAgg
import repro.core.model.ModelType

/** The one place the Segment View's aggregates evaluate a segment's model
  * (paper Section VI-B and VI-C); the Data Point View decodes in the store's
  * reader instead. Each result covers all of the segment's represented
  * members at once, in model space (before the per-series scaling constant):
  *
  *  - [[aggregates]]: each member's aggregate over the whole segment, for the
  *    `*_S` UDAFs;
  *  - [[buckets]]: each member's aggregates per time bucket, for `CUBE_*`.
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

  /** Each member's aggregate over the whole segment. */
  def aggregates(mid: Int, start: Long, end: Long, si: Int, params: Array[Byte],
                 nseries: Int): Array[SeriesAgg] =
    memoized(Whole, mid, start, end, si, params, nseries) { (mt, len) =>
      mt.aggregate(params, nseries, len, 0, len - 1)
    }

  /** Each member's aggregates per bucket of `interval` that the segment
    * overlaps: the segment is cut at the bucket boundaries and each piece is
    * aggregated on the model (Algorithm 3).
    */
  def buckets(mid: Int, start: Long, end: Long, si: Int, params: Array[Byte],
              nseries: Int, interval: TimeCube.Interval): Buckets =
    memoized(interval, mid, start, end, si, params, nseries) { (mt, len) =>
      val starts = scala.collection.mutable.ArrayBuffer.empty[Long]
      val aggs   = scala.collection.mutable.ArrayBuffer.empty[Array[SeriesAgg]]
      var bucket = interval.floor(start)
      while (bucket <= end) {
        val bucketEnd = interval.next(bucket) - 1 // inclusive
        val fromTick  = if (bucket <= start) 0 else (((bucket - start) + si - 1) / si).toInt
        val toTick    = math.min((len - 1).toLong, (bucketEnd - start) / si).toInt
        if (fromTick <= toTick) {
          starts += bucket
          aggs += mt.aggregate(params, nseries, len, fromTick, toTick)
        }
        bucket = interval.next(bucket)
      }
      Buckets(starts.toArray, aggs.toArray)
    }

  /** The memo kind besides the bucket intervals. */
  private case object Whole

  /** The last evaluation on this thread and the content it was made from. */
  private final class Memo {
    var kind: AnyRef          = _
    var mid, si, nseries, len = 0
    var start                 = 0L
    var params: Array[Byte]   = _
    var result: AnyRef        = _

    def holds(k: AnyRef, m: Int, st: Long, s: Int, l: Int, n: Int, p: Array[Byte]): Boolean =
      result != null && (kind eq k) && mid == m && start == st && si == s && len == l &&
        nseries == n && java.util.Arrays.equals(params, p)
  }

  private val memo = ThreadLocal.withInitial[Memo](() => new Memo)

  private def memoized[R <: AnyRef](kind: AnyRef, mid: Int, start: Long, end: Long, si: Int,
                                    params: Array[Byte], nseries: Int)
                                   (evaluate: (ModelType, Int) => R): R = {
    val len = ((end - start) / si).toInt + 1
    val m   = memo.get()
    if (!m.holds(kind, mid, start, si, len, nseries, params)) {
      m.result = null // a failed evaluation must not leave a stale entry behind
      val r = evaluate(ModelType.byMid(mid), len)
      m.kind = kind; m.mid = mid; m.start = start; m.si = si; m.len = len
      m.nseries = nseries; m.params = params.clone()
      m.result = r
    }
    m.result.asInstanceOf[R]
  }
}
