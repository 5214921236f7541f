package repro.core.model

import repro.core.Types.SeriesAgg

/** Incremental fitter for one segment of one time series group.
  *
  * A fitter receives the group's values one sampling tick at a time
  * ([[append]] gets one value per *active* series, in sorted-tid order). It
  * either accepts the tick — the model still represents every appended value
  * within the error bound — or rejects it, after which the fitter is *dead*
  * and keeps representing exactly the previously accepted prefix
  * ([[length]] ticks, serialized by [[serialize]]).
  */
trait ModelFitter {

  /** Try to extend the model with the next tick's values, one per series,
    * at `values(offset)` onwards. Returns false — leaving the accepted prefix
    * untouched — if the model cannot represent them within the bound. The
    * fitter keeps no reference to `values`.
    */
  def append(values: Array[Float], offset: Int): Boolean

  /** [[append]] of a tick held in an array of its own. */
  final def append(values: Array[Float]): Boolean = append(values, 0)

  /** Number of accepted ticks. */
  def length: Int

  /** Serialized size in bytes of the model for the accepted prefix. */
  def bytes: Int

  /** Model parameters for the accepted prefix. */
  def serialize(): Array[Byte]
}

/** A model type (paper Section II): a way to fit a model to a bounded time
  * series group within an error bound ε, plus how to decode and aggregate the
  * resulting parameter blob.
  *
  * The error bound `epsilonPct` is *relative*, in percent: a value v may be
  * approximated by v̂ iff |v − v̂| ≤ (epsilonPct/100)·|v| (uniform norm, the
  * semantics ModelarDB uses). `epsilonPct = 0` demands exact reconstruction.
  * Lossless types ignore ε and are bounded by `lengthBound` ticks instead
  * (paper Section III-B).
  */
trait ModelType extends Serializable {

  /** Stable model-type id, persisted in segments (the paper's Mid). */
  def mid: Int

  def name: String

  /** Lossless types reconstruct values exactly and are length-bounded. */
  def lossless: Boolean

  /** A fresh fitter for a segment with `nSeries` active series. */
  def newFitter(nSeries: Int, epsilonPct: Double, lengthBound: Int): ModelFitter

  /** Decode the blob to tick-major values: result(t * nSeries + s) is the
    * reconstructed (unscaled) value of active series `s` at tick `t`.
    */
  def decode(params: Array[Byte], nSeries: Int, length: Int): Array[Float]

  /** Per-series aggregates over ticks [fromTick, toTick] (inclusive), in
    * model space (unscaled). The default decodes and accumulates; constant
    * and linear types override with closed forms so aggregates cost O(1) per
    * segment (paper Section VI-B).
    */
  def aggregate(params: Array[Byte], nSeries: Int, length: Int,
                fromTick: Int, toTick: Int): Array[SeriesAgg] = {
    require(fromTick >= 0 && toTick < length && fromTick <= toTick,
            s"bad tick range [$fromTick,$toTick] for length $length")
    val values = decode(params, nSeries, length)
    val sum    = new Array[Double](nSeries)
    val min    = Array.fill(nSeries)(Double.PositiveInfinity)
    val max    = Array.fill(nSeries)(Double.NegativeInfinity)
    var t = fromTick
    while (t <= toTick) {
      var s = 0
      while (s < nSeries) {
        val v = values(t * nSeries + s).toDouble
        sum(s) += v
        min(s) = math.min(min(s), v)
        max(s) = math.max(max(s), v)
        s += 1
      }
      t += 1
    }
    val count = (toTick - fromTick + 1).toLong
    Array.tabulate(nSeries)(s => SeriesAgg(count, sum(s), min(s), max(s)))
  }
}

object ModelType {

  /** Per-value tolerance for a relative error bound in percent. */
  @inline def tolerance(v: Double, epsilonPct: Double): Double =
    epsilonPct / 100.0 * math.abs(v)

  /** All model types known to this build, keyed by Mid (the paper's Model
    * table mapping Mid to an implementation class).
    */
  val byMid: Map[Int, ModelType] = Seq(
    Fallback, PmcMean, Swing, Gorilla, PmcMidrange
  ).map(m => m.mid -> m).toMap

  /** GOLEMM's default model-type list, tried in order (paper Figure 4). */
  val defaultList: Seq[ModelType] = Seq(PmcMean, Swing, Gorilla)

  /** The MDB (v1) baseline list: PMC-MR instead of PMC-Mean (Table I). */
  val mdbV1List: Seq[ModelType] = Seq(PmcMidrange, Swing, Gorilla)
}
