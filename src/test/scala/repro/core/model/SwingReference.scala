package repro.core.model

import java.nio.ByteBuffer

/** The Swing fitter as it was before its fast path: whenever the float
  * candidate slope moves, it revalidates every accepted tick, so a segment of
  * k ticks costs O(k²). Kept as the reference [[SwingEquivalenceSpec]]
  * compares the production fitter with.
  */
final class SwingReference(nSeries: Int, epsilonPct: Double) extends ModelFitter {
  import Swing.valueAt

  private var ticks     = 0
  private var intercept = 0.0f
  private var loSlope   = Double.NegativeInfinity
  private var hiSlope   = Double.PositiveInfinity
  private var slopeF    = 0.0f
  private val lowers = scala.collection.mutable.ArrayBuffer.empty[Double]
  private val uppers = scala.collection.mutable.ArrayBuffer.empty[Double]

  private def tickBounds(values: Array[Float]): (Double, Double) = {
    var lo = Double.NegativeInfinity; var hi = Double.PositiveInfinity
    var i = 0
    while (i < values.length) {
      val v   = values(i).toDouble
      val tol = ModelType.tolerance(v, epsilonPct)
      if (v - tol > lo) lo = v - tol
      if (v + tol < hi) hi = v + tol
      i += 1
    }
    (lo, hi)
  }

  override def append(tick: Array[Float], offset: Int): Boolean = {
    val values = tick.slice(offset, offset + nSeries)
    require(values.length == nSeries, s"expected $nSeries values, got ${values.length}")
    val (lo, hi) = tickBounds(values)
    if (lo > hi) return false
    if (ticks == 0) {
      var sum = 0.0; var i = 0
      while (i < values.length) { sum += values(i); i += 1 }
      val b = math.min(hi, math.max(lo, sum / values.length)).toFloat
      if (b.toDouble < lo || b.toDouble > hi) return false
      intercept = b; lowers += lo; uppers += hi; ticks = 1
      true
    } else {
      val k    = ticks.toDouble
      val nLo  = math.max(loSlope, (lo - intercept) / k)
      val nHi  = math.min(hiSlope, (hi - intercept) / k)
      if (nLo > nHi) return false
      val mid  = if (nLo.isInfinite && nHi.isInfinite) 0.0
                 else if (nLo.isInfinite) nHi else if (nHi.isInfinite) nLo
                 else (nLo + nHi) / 2
      val cand = mid.toFloat
      if (cand == slopeF) {
        val v = valueAt(cand, intercept, ticks).toDouble
        if (v < lo || v > hi) return false
      } else {
        var j = 0
        while (j < ticks) {
          val v = valueAt(cand, intercept, j).toDouble
          if (v < lowers(j) || v > uppers(j)) return false
          j += 1
        }
        val v = valueAt(cand, intercept, ticks).toDouble
        if (v < lo || v > hi) return false
      }
      loSlope = nLo; hiSlope = nHi; slopeF = cand
      lowers += lo; uppers += hi; ticks += 1
      true
    }
  }

  override def length: Int = ticks
  override def bytes: Int  = 8

  override def serialize(): Array[Byte] = {
    require(ticks > 0, "cannot serialize an empty Swing model")
    ByteBuffer.allocate(8).putFloat(slopeF).putFloat(intercept).array()
  }
}
