package repro.core.model

import java.nio.ByteBuffer
import repro.core.Types.SeriesAgg

/** A constant model type of the PMC family [Lazaridis & Mehrotra, ICDE'03],
  * extended to groups (paper Section V): a single float represents every
  * value of every active series over the segment, so a segment costs 32 bits
  * regardless of its length.
  *
  * The group extension needs no structural change — the fitter simply folds
  * the values of *all* series at a tick into the same running bounds. For a
  * per-value relative tolerance we track `maxLower = max(v − tol(v))` and
  * `minUpper = min(v + tol(v))`; a stored value fits iff it lies in
  * `[maxLower, minUpper]`, which is exact for any per-value tolerance. The
  * variants differ only in the value they store, [[stored]].
  */
sealed abstract class PmcType extends ModelType {
  /** The value the model stores for the feasible interval `[lower, upper]`
    * and the mean of the values appended so far.
    */
  protected def stored(lower: Double, upper: Double, mean: Double): Double

  override def newFitter(nSeries: Int, epsilonPct: Double, lengthBound: Int): ModelFitter =
    new Fitter(nSeries, epsilonPct)

  private final class Fitter(nSeries: Int, epsilonPct: Double) extends ModelFitter {
    private var count    = 0L
    private var sum      = 0.0
    private var maxLower = Double.NegativeInfinity
    private var minUpper = Double.PositiveInfinity
    private var ticks    = 0

    override def append(values: Array[Float], offset: Int): Boolean = {
      var nLower = maxLower; var nUpper = minUpper; var nSum = sum
      var i = offset
      while (i < offset + nSeries) {
        val v   = values(i).toDouble
        val tol = ModelType.tolerance(v, epsilonPct)
        if (v - tol > nLower) nLower = v - tol
        if (v + tol < nUpper) nUpper = v + tol
        nSum += v
        i += 1
      }
      // A non-finite value leaves the bounds as they were (its tolerance is
      // NaN or infinite), so the sum is what rejects it.
      if (!java.lang.Double.isFinite(nSum)) return false
      val nCount = count + nSeries
      // Validate with the float-rounded value so serialization rounding can
      // never silently break the bound.
      val value = stored(nLower, nUpper, nSum / nCount).toFloat.toDouble
      if (value < nLower || value > nUpper) return false
      count = nCount; sum = nSum; maxLower = nLower; minUpper = nUpper; ticks += 1
      true
    }

    override def length: Int = ticks
    override def bytes: Int  = 4

    override def serialize(): Array[Byte] = {
      require(ticks > 0, s"cannot serialize an empty $name model")
      ByteBuffer.allocate(4).putFloat(stored(maxLower, minUpper, sum / count).toFloat).array()
    }
  }

  private def value(params: Array[Byte]): Float = ByteBuffer.wrap(params).getFloat

  override def decode(params: Array[Byte], nSeries: Int, length: Int): Array[Float] = {
    val out = new Array[Float](length * nSeries)
    java.util.Arrays.fill(out, value(params))
    out
  }

  override def aggregate(params: Array[Byte], nSeries: Int, length: Int,
                         fromTick: Int, toTick: Int): Array[SeriesAgg] = {
    require(fromTick >= 0 && toTick < length && fromTick <= toTick,
            s"bad tick range [$fromTick,$toTick] for length $length")
    val v = value(params).toDouble
    val n = (toTick - fromTick + 1).toLong
    Array.fill(nSeries)(SeriesAgg(n, v * n, v, v))
  }
}

/** PMC-Mean, the constant type of MDB+: it stores the mean clamped to the
  * feasible interval.
  */
object PmcMean extends PmcType {
  override val mid  = 1
  override val name = "PMC-Mean"

  override protected def stored(lower: Double, upper: Double, mean: Double): Double =
    math.min(upper, math.max(lower, mean))
}

/** PMC-MR: the mid-range variant used by the MDB (v1) baseline. It stores the
  * midpoint of the feasible interval, so it accepts every tick PMC-Mean does
  * *and more* (the mean can drift outside the interval; the midpoint cannot)
  * — at the price of a higher average error, which is exactly why the paper
  * swapped it out (Table I).
  */
object PmcMidrange extends PmcType {
  override val mid  = 4
  override val name = "PMC-MR"

  override protected def stored(lower: Double, upper: Double, mean: Double): Double =
    (lower + upper) / 2
}
