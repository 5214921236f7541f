package repro.core.golemm

import scala.collection.mutable.ArrayBuffer
import repro.core.Types.SegmentRecord
import repro.core.model.{Fallback, ModelFitter, ModelType}

/** GOLEMM configuration (paper Sections III-B, IV-D and VII-A defaults). */
final case class GolemmConfig(
    modelTypes: Seq[ModelType] = ModelType.defaultList,
    epsilonPct: Double = 10.0,
    lengthBound: Int = 50,
    splitFraction: Double = 10.0,
    dynamicSplitting: Boolean = true,
) {
  require(modelTypes.nonEmpty, "at least one model type is required")
  require(lengthBound > 0, "length bound must be positive")
}

/** GOLEMM's window-based multi-model fitting for ONE contiguous run of ticks
  * of a fixed set of active series (paper Figure 4).
  *
  * Data points are appended tick by tick; the model types are tried in their
  * configured order. When the current type rejects the window, the next type
  * must fit *all* buffered points; when the last type rejects, the fitter
  * with the best compression is emitted as a disconnected segment, its points
  * are dropped from the buffer, and fitting restarts with the first type on
  * the remainder. If no type fitted anything, the raw-value fallback type is
  * used (paper Section III-A).
  *
  * Invariant between calls: `fitters(cur)` has accepted every buffered tick.
  * The buffered ticks are rows of `nSeries` values in one growable array,
  * which the fitters read by offset.
  *
  * @param gid     group id recorded on emitted segments
  * @param nSeries number of active series (values per tick)
  * @param gaps    gap bitmask recorded on emitted segments (bit i set means
  *                the group's i-th member is NOT represented)
  * @param si      sampling interval in ms
  */
final class SegmentGenerator(
    gid: Int,
    nSeries: Int,
    gaps: Long,
    si: Int,
    cfg: GolemmConfig,
) {
  import SegmentGenerator.MetadataBytes

  private val types   = cfg.modelTypes.toIndexedSeq
  // The buffered ticks: tick t's values start at `head + t * nSeries`.
  private var buf     = new Array[Float](16 * nSeries)
  private var head    = 0
  private var ticks   = 0
  private var firstTs = 0L
  private var cur     = 0
  private val fitters = ArrayBuffer[ModelFitter](newFitter(0))

  private def newFitter(i: Int): ModelFitter =
    types(i).newFitter(nSeries, cfg.epsilonPct, cfg.lengthBound)

  /** Number of ticks currently buffered (not yet emitted). */
  def buffered: Int = ticks

  /** The buffered value of the series at active-index `s` at buffered tick
    * `t`, oldest first — read by the dynamic split heuristic (Algorithm 2).
    */
  def bufferedValue(t: Int, s: Int): Float = buf(head + t * nSeries + s)

  /** Timestamp the buffer starts at (undefined when empty). */
  def bufferStart: Long = firstTs

  /** Append the next tick at `ts`, whose values are `values(offset)` to
    * `values(offset + nSeries - 1)`; they are copied. The caller guarantees
    * ticks are contiguous (`ts` advances by exactly `si`). Returns any
    * segments emitted as a consequence.
    */
  def append(ts: Long, values: Array[Float], offset: Int): Seq[SegmentRecord] = {
    if (ticks == 0) { firstTs = ts; head = 0 }
    if (head + (ticks + 1) * nSeries > buf.length) {
      // Move the buffered ticks to the front, into a doubled array unless
      // that leaves this one at most half full.
      val live = ticks * nSeries
      val dst  = if (2 * (live + nSeries) <= buf.length) buf else new Array[Float](2 * (live + nSeries))
      System.arraycopy(buf, head, dst, 0, live)
      buf = dst
      head = 0
    }
    val at = head + ticks * nSeries
    System.arraycopy(values, offset, buf, at, nSeries)
    ticks += 1
    if (fitters(cur).append(buf, at)) Nil
    else {
      val out = ArrayBuffer.empty[SegmentRecord]
      settle(out)
      out.toSeq
    }
  }

  /** Emit everything left in the buffer (end of the run / gap / shutdown) and
    * reset for a fresh run.
    */
  def flush(): Seq[SegmentRecord] = {
    val out = ArrayBuffer.empty[SegmentRecord]
    while (ticks > 0) {
      out += emitBest()
      if (ticks > 0) {
        resetFitters()
        if (!replay(fitters(cur))) settle(out)
      }
    }
    resetFitters()
    out.toSeq
  }

  // Restore the invariant after the current fitter rejected the buffer: try
  // the remaining types on the whole buffer; on exhaustion emit the best
  // model, drop its points and restart from the first type — repeatedly,
  // since the replay of the shrunken buffer can itself exhaust the types.
  private def settle(out: ArrayBuffer[SegmentRecord]): Unit = {
    var ok = false
    while (!ok) {
      var advanced = false
      while (!advanced && cur + 1 < types.length) {
        cur += 1
        val f = newFitter(cur)
        if (fitters.length <= cur) fitters += f else fitters(cur) = f
        if (replay(f)) advanced = true
      }
      if (advanced) ok = true
      else {
        out += emitBest()
        resetFitters()
        ok = ticks == 0 || replay(fitters(cur))
      }
    }
  }

  private def resetFitters(): Unit = {
    cur = 0
    fitters.clear()
    fitters += newFitter(0)
  }

  // Append the buffered ticks to `f` while it accepts them; the number it
  // accepted.
  private def fill(f: ModelFitter): Int = {
    var t = 0
    while (t < ticks && f.append(buf, head + t * nSeries)) t += 1
    t
  }

  // Replay the whole buffer into a fresh fitter; true if it all fit.
  private def replay(f: ModelFitter): Boolean = fill(f) == ticks

  // Pick the fitted model with the best compression (fewest bytes per data
  // point, including per-segment metadata overhead), emit it as a segment and
  // drop the points it covers.
  private def emitBest(): SegmentRecord = {
    var bestIdx   = -1
    var bestScore = Double.PositiveInfinity
    var i = 0
    while (i < fitters.length) {
      val f = fitters(i)
      if (f.length > 0) {
        val score = (f.bytes + MetadataBytes).toDouble / (f.length.toLong * nSeries)
        if (score < bestScore) { bestScore = score; bestIdx = i }
      }
      i += 1
    }
    val (tpe, fitter) =
      if (bestIdx >= 0) (types(bestIdx), fitters(bestIdx))
      else {
        // No type fitted even one tick: fall back to raw values.
        val fb = Fallback.newFitter(nSeries, cfg.epsilonPct, cfg.lengthBound)
        fill(fb)
        (Fallback, fb)
      }
    val len = fitter.length
    val seg = SegmentRecord(
      gid = gid,
      startTime = firstTs,
      endTime = firstTs + (len - 1).toLong * si,
      si = si,
      mid = tpe.mid,
      params = fitter.serialize(),
      gaps = gaps,
    )
    head += len * nSeries
    ticks -= len
    firstTs += len.toLong * si
    seg
  }
}

object SegmentGenerator {
  /** Estimated per-segment metadata overhead (gid, times, mid, gaps) used
    * when comparing candidate models' compression — without it a short
    * constant model would always beat a longer lossless one.
    */
  val MetadataBytes: Int = 16
}
