package repro.core.golemm

import repro.core.Types.SegmentRecord

/** Gap management for a (sub-)group of series (paper Figure 5).
  *
  * Consumes aligned ticks for a fixed subset of a group's members. A value of
  * `Float.NaN` marks ⊥ (the series is in a gap at that tick). Whenever the
  * set of present series changes — or ticks stop being contiguous because
  * every series gapped — the current segment run is flushed and a new
  * [[SegmentGenerator]] is started whose `Gaps` bitmask names the absent
  * members, so each emitted segment represents a static set of series.
  *
  * @param gid       group id stamped on segments
  * @param memberIdx indices (into the group's sorted-tid member list) of the
  *                  series this compressor handles; the gap bitmask marks all
  *                  group members NOT represented by a segment
  * @param groupSize total number of members in the group (for the bitmask)
  */
final class GroupCompressor(
    gid: Int,
    memberIdx: Array[Int],
    groupSize: Int,
    si: Int,
    cfg: GolemmConfig,
) {
  require(groupSize <= 64, s"group of $groupSize series exceeds the 64-bit gap bitmask")

  private var generator: SegmentGenerator = _
  private var activeIdx: Array[Int]       = Array.emptyIntArray // positions into memberIdx
  private var lastTs                      = Long.MinValue

  /** The generator currently ingesting, if any — for split heuristics. */
  def currentGenerator: Option[SegmentGenerator] = Option(generator)

  /** Positions (into this compressor's `memberIdx`) of the currently present
    * series, matching the generator's active-index order.
    */
  def activePositions: Array[Int] = activeIdx

  /** Consume the values of this compressor's members at tick `ts` (NaN = gap).
    * Returns any segments emitted. When every member is present the
    * generator buffers `values` itself, so the caller must not modify the
    * array afterwards.
    */
  def consume(ts: Long, values: Array[Float]): Seq[SegmentRecord] = {
    require(values.length == memberIdx.length,
            s"expected ${memberIdx.length} values, got ${values.length}")
    // One pass: count the present series and check they are `activeIdx`.
    var nPresent   = 0
    var sameActive = generator != null
    var i = 0
    while (i < values.length) {
      if (!values(i).isNaN) {
        if (sameActive && (nPresent == activeIdx.length || activeIdx(nPresent) != i)) sameActive = false
        nPresent += 1
      }
      i += 1
    }
    // Every series gapped: close the run; the next segment starts later.
    if (nPresent == 0) return close()

    var closed: Seq[SegmentRecord] = Nil
    if (!sameActive || nPresent != activeIdx.length || ts != lastTs + si) {
      // The present set changed or the ticks are not contiguous: new run.
      closed = close()
      activeIdx = presentPositions(values, nPresent)
      generator = new SegmentGenerator(gid, nPresent, gapMask(activeIdx), si, cfg)
    }
    val compact =
      if (nPresent == values.length) values
      else {
        val c = new Array[Float](nPresent)
        var j = 0
        while (j < nPresent) { c(j) = values(activeIdx(j)); j += 1 }
        c
      }
    val emitted = generator.append(ts, compact)
    lastTs = ts
    if (closed.isEmpty) emitted else if (emitted.isEmpty) closed else closed ++ emitted
  }

  private def presentPositions(values: Array[Float], nPresent: Int): Array[Int] = {
    val out = new Array[Int](nPresent)
    var i = 0; var j = 0
    while (i < values.length) {
      if (!values(i).isNaN) { out(j) = i; j += 1 }
      i += 1
    }
    out
  }

  /** Flush and close the current run (end of stream or group restructuring). */
  def close(): Seq[SegmentRecord] =
    if (generator == null) Nil
    else {
      val segs = generator.flush()
      generator = null
      activeIdx = Array.emptyIntArray
      segs
    }

  // Bitmask of group members NOT represented: everything except the present
  // subset of this compressor's members.
  private def gapMask(presentPositions: Array[Int]): Long = {
    var mask = 0L
    var m = 0
    while (m < groupSize) { mask |= 1L << m; m += 1 }
    var j = 0
    while (j < presentPositions.length) {
      mask &= ~(1L << memberIdx(presentPositions(j)))
      j += 1
    }
    mask
  }
}
