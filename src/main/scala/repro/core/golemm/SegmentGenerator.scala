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
  private val buffer  = ArrayBuffer.empty[Array[Float]]
  private var firstTs = 0L
  private var cur     = 0
  private val fitters = ArrayBuffer[ModelFitter](newFitter(0))

  private def newFitter(i: Int): ModelFitter =
    types(i).newFitter(nSeries, cfg.epsilonPct, cfg.lengthBound)

  /** Number of ticks currently buffered (not yet emitted). */
  def buffered: Int = buffer.length

  /** Buffered values of the series at active-index `s`, oldest first — used
    * by the dynamic split heuristic (Algorithm 2).
    */
  def bufferedValues(s: Int): IndexedSeq[Float] = buffer.map(_(s)).toIndexedSeq

  /** Timestamp the buffer starts at (undefined when empty). */
  def bufferStart: Long = firstTs

  /** Append the values for the next tick at `ts`. The caller guarantees ticks
    * are contiguous (`ts` advances by exactly `si`). Returns any segments
    * emitted as a consequence.
    */
  def append(ts: Long, values: Array[Float]): Seq[SegmentRecord] = {
    require(values.length == nSeries, s"expected $nSeries values, got ${values.length}")
    if (buffer.isEmpty) firstTs = ts
    buffer += values
    if (fitters(cur).append(values)) Nil
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
    while (buffer.nonEmpty) {
      out += emitBest()
      if (buffer.nonEmpty) {
        resetFitters()
        if (!replayIntoCurrent()) settle(out)
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
        if (buffer.forall(f.append)) advanced = true
      }
      if (advanced) ok = true
      else {
        out += emitBest()
        if (buffer.isEmpty) { resetFitters(); ok = true }
        else {
          resetFitters()
          ok = replayIntoCurrent()
        }
      }
    }
  }

  private def resetFitters(): Unit = {
    cur = 0
    fitters.clear()
    fitters += newFitter(0)
  }

  // Replay the whole buffer into the (fresh) current fitter; true if it all fit.
  private def replayIntoCurrent(): Boolean = buffer.forall(fitters(cur).append)

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
        buffer.iterator.takeWhile(fb.append).foreach(_ => ())
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
    buffer.remove(0, len)
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
