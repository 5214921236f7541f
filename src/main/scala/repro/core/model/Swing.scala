package repro.core.model

import java.nio.ByteBuffer
import repro.core.Types.SeriesAgg

/** The linear Swing model type [Elmeleegy et al., PVLDB'09], extended to
  * groups (paper Section V): one linear function `v(t) = intercept + slope·t`
  * (t in sampling ticks from the segment start) represents every active
  * series, so a segment costs 64 bits regardless of its length.
  *
  * Group extension per the paper: the intercept is fitted PMC-Mean-style to
  * the first tick's values; each later value then *swings* the feasible slope
  * interval `[loSlope, hiSlope]` and the model fits while the interval is
  * non-empty. Reconstruction uses the float-rounded (slope, intercept), and
  * every accepted tick is validated against that rounded model, so
  * serialization can never break the error bound.
  */
object Swing extends ModelType {
  override val mid      = 2
  override val name     = "Swing"
  override val lossless = false

  /** Reconstructed value at `tick` — the single definition shared by the
    * fitter's validation, [[decode]] and [[aggregate]] so they agree bit-for-bit.
    */
  @inline def valueAt(slope: Float, intercept: Float, tick: Int): Float =
    (intercept.toDouble + slope.toDouble * tick).toFloat

  // 2^-21: the fitter's fast-path margin per unit of value magnitude.
  private val MarginScale = math.scalb(1.0, -21)

  override def newFitter(nSeries: Int, epsilonPct: Double, lengthBound: Int): ModelFitter =
    new Fitter(nSeries, epsilonPct)

  private final class Fitter(nSeries: Int, epsilonPct: Double) extends ModelFitter {
    private var ticks     = 0
    private var intercept = 0.0f
    private var loSlope   = Double.NegativeInfinity
    private var hiSlope   = Double.PositiveInfinity
    // Stored float candidate; the accepted ticks are revalidated against a
    // new candidate only when the fast path below cannot vouch for them.
    private var slopeF    = 0.0f
    // Accepted per-tick feasible value intervals, for full revalidation, and
    // the largest |lower| or |upper| among them.
    private var lowers = new Array[Double](16)
    private var uppers = new Array[Double](16)
    private var vMax   = 0.0
    // The new tick's feasible value interval and the sum of its values, set
    // by `tickBounds`.
    private var lo  = 0.0
    private var hi  = 0.0
    private var sum = 0.0

    private def tickBounds(values: Array[Float], offset: Int): Unit = {
      lo = Double.NegativeInfinity; hi = Double.PositiveInfinity; sum = 0.0
      var i = offset
      while (i < offset + nSeries) {
        val v   = values(i).toDouble
        val tol = ModelType.tolerance(v, epsilonPct)
        if (v - tol > lo) lo = v - tol
        if (v + tol < hi) hi = v + tol
        sum += v
        i += 1
      }
    }

    private def accept(): Unit = {
      if (ticks == lowers.length) {
        lowers = java.util.Arrays.copyOf(lowers, ticks * 2)
        uppers = java.util.Arrays.copyOf(uppers, ticks * 2)
      }
      lowers(ticks) = lo; uppers(ticks) = hi
      vMax = math.max(vMax, math.max(math.abs(lo), math.abs(hi)))
      ticks += 1
    }

    // A negated rejection: a NaN reconstruction is not rejected.
    private def fits(slope: Float, tick: Int, lower: Double, upper: Double): Boolean = {
      val v = valueAt(slope, intercept, tick).toDouble
      !(v < lower || v > upper)
    }

    // Whether the accepted ticks need no revalidation against `cand`, a
    // float slope inside the new feasible interval [nLo, nHi].
    //
    // Every accepted tick j >= 1 satisfied `(lowers(j) - intercept) / j <= nLo`
    // and `(uppers(j) - intercept) / j >= nHi`, so if `cand` clears both ends
    // of the interval by more than `margin`, the exact line
    // `intercept + cand·j` clears tick j's bounds by j·margin >= margin. The
    // reconstruction `valueAt` differs from the exact line by the double
    // product and sum (under 2^-50·vMax) plus one rounding to float: half an
    // ulp, at most 2^-24·vMax, or 2^-150 among subnormals. The exact line at
    // tick j lies within [-vMax, vMax], so with vMax <= Float.MaxValue the
    // rounding cannot overflow. `margin = 2^-21·vMax + 2^-149` exceeds the
    // sum, so every accepted tick still fits. Tick 0 reconstructs as the
    // intercept whatever the slope. NaN or infinite bounds make a comparison
    // false and fall to the slow path, as does ε = 0, where the interval has
    // no width.
    private def acceptedStillFit(cand: Float, nLo: Double, nHi: Double): Boolean = {
      val margin = vMax * MarginScale + Float.MinPositiveValue
      vMax <= Float.MaxValue && cand - nLo > margin && nHi - cand > margin
    }

    override def append(values: Array[Float], offset: Int): Boolean = {
      tickBounds(values, offset)
      // A non-finite value leaves the bounds as they were (its tolerance is
      // NaN or infinite), so the sum is what rejects it.
      if (lo > hi || !java.lang.Double.isFinite(sum)) return false
      if (ticks == 0) {
        val b = math.min(hi, math.max(lo, sum / nSeries)).toFloat
        if (b.toDouble < lo || b.toDouble > hi) return false
        intercept = b
        accept()
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
        if (cand != slopeF && !acceptedStillFit(cand, nLo, nHi)) {
          // Slow path: revalidate every accepted tick against the new slope.
          var j = 0
          while (j < ticks) {
            if (!fits(cand, j, lowers(j), uppers(j))) return false
            j += 1
          }
        }
        // The new tick is always validated.
        if (!fits(cand, ticks, lo, hi)) return false
        loSlope = nLo; hiSlope = nHi; slopeF = cand
        accept()
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

  private def parts(params: Array[Byte]): (Float, Float) = {
    val bb = ByteBuffer.wrap(params)
    (bb.getFloat, bb.getFloat)
  }

  override def decode(params: Array[Byte], nSeries: Int, length: Int): Array[Float] = {
    val (a, b) = parts(params)
    val out    = new Array[Float](length * nSeries)
    var t = 0
    while (t < length) {
      val v = valueAt(a, b, t)
      var s = 0
      while (s < nSeries) { out(t * nSeries + s) = v; s += 1 }
      t += 1
    }
    out
  }

  override def aggregate(params: Array[Byte], nSeries: Int, length: Int,
                         fromTick: Int, toTick: Int): Array[SeriesAgg] = {
    require(fromTick >= 0 && toTick < length && fromTick <= toTick,
            s"bad tick range [$fromTick,$toTick] for length $length")
    val (a, b) = parts(params)
    val n      = (toTick - fromTick + 1).toLong
    // Closed-form sum of the exact line; endpoint min/max since it is monotone.
    // (Float rounding per tick is within the error bound by construction.)
    val sumT = (fromTick.toLong + toTick.toLong) * n / 2.0
    val sum  = b.toDouble * n + a.toDouble * sumT
    val v0   = valueAt(a, b, fromTick).toDouble
    val v1   = valueAt(a, b, toTick).toDouble
    Array.fill(nSeries)(SeriesAgg(n, sum, math.min(v0, v1), math.max(v0, v1)))
  }
}
