package repro.core

/** Shared value types for the ModelarDB+ reproduction.
  *
  * Terminology follows the paper (Section II): a *time series* is a sequence
  * of (timestamp, value) pairs with a fixed sampling interval SI; a *time
  * series group* is a set of aligned regular time series (possibly with
  * gaps); a *segment* represents a bounded interval of a group with a single
  * model.
  */
object Types {

  /** Points of one group from one ingest map task, in columns and in no
    * particular order: point i is `values(i)` at `ts(i)` for the member at
    * position `pos(i)` among the group's sorted tids. This is the record
    * that ingestion shuffles, keyed by `gid`.
    */
  final case class GroupChunk(gid: Int, ts: Array[Long], pos: Array[Byte], values: Array[Float])

  /** Static metadata for one time series (the paper's Time Series table).
    *
    * @param tid     unique time series id
    * @param si      sampling interval in milliseconds
    * @param scaling per-series scaling constant C_TS; model values are
    *                multiplied by it at query time (paper Section III-C)
    * @param dims    denormalized dimension members, `dims(d)(l)` being the
    *                member of dimension `d` at named level `l+1` counted from
    *                the top of the hierarchy (level 0 is the implicit top)
    * @param source  identifier of the origin (file/socket) used by the
    *                explicit-source grouping primitive
    */
  final case class TimeSeriesMeta(
      tid: Int,
      si: Int,
      scaling: Double = 1.0,
      dims: Map[String, IndexedSeq[String]] = Map.empty,
      source: String = "",
  )

  /** A time series group after static grouping: gid plus sorted member tids. */
  final case class Group(gid: Int, tids: IndexedSeq[Int]) {
    require(tids.nonEmpty && tids == tids.sorted, s"group $gid tids must be sorted and non-empty")
  }

  /** One stored segment (the paper's Segment table, Figure 6).
    *
    * The segment covers timestamps `startTime, startTime+si, ..., endTime`
    * (inclusive, disconnected from its neighbours). `gaps` is the paper's
    * 64-bit bitmask: bit *i* set means the group's *i*-th member (in sorted
    * tid order) has a gap for the whole segment and is NOT represented.
    * `params` is the model-type specific blob for the series that ARE
    * represented, in sorted tid order.
    */
  final case class SegmentRecord(
      gid: Int,
      startTime: Long,
      endTime: Long,
      si: Int,
      mid: Int,
      params: Array[Byte],
      gaps: Long,
  ) {
    /** Number of sampling ticks the segment covers. */
    def length: Int = ((endTime - startTime) / si).toInt + 1

    override def equals(o: Any): Boolean = o match {
      case s: SegmentRecord =>
        gid == s.gid && startTime == s.startTime && endTime == s.endTime &&
          si == s.si && mid == s.mid && gaps == s.gaps &&
          java.util.Arrays.equals(params, s.params)
      case _ => false
    }
    override def hashCode(): Int =
      (gid, startTime, endTime, si, mid, gaps, java.util.Arrays.hashCode(params)).hashCode()
  }

  /** Per-series aggregate summary over a tick range of one segment, in model
    * space (before the per-series scaling constant is applied).
    */
  final case class SeriesAgg(count: Long, sum: Double, min: Double, max: Double) {
    def merge(o: SeriesAgg): SeriesAgg =
      SeriesAgg(count + o.count, sum + o.sum, math.min(min, o.min), math.max(max, o.max))
  }

  object SeriesAgg {
    val empty: SeriesAgg = SeriesAgg(0L, 0.0, Double.PositiveInfinity, Double.NegativeInfinity)
  }
}
