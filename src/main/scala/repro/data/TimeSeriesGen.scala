package repro.data

import java.util.Random

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable.ArrayBuffer

import repro.core.Types.TimeSeriesMeta
import repro.core.grouping.DimensionSpec

/** Synthetic substitutes for the paper's proprietary data sets (Section
  * VII-B): regular time series with gaps, organized in *correlation clusters*
  * (a shared base signal per cluster plus a small per-series offset) and
  * described by dimension hierarchies mirroring the paper's, so the grouping
  * primitives can rediscover the clusters from metadata alone.
  *
  * The base signal switches between constant, linear and noisy regimes so
  * every GOLEMM model type is exercised (the paper's Figures 17–19 show all
  * types used on all data sets). All values are quantized to multiples of
  * 2⁻¹⁰ and bounded, so double-precision sums are exact and order-independent
  * — required by the DuckDB oracle.
  *
  * Determinism: everything derives from `(spec.seed, cluster)` for the base
  * signal and `(spec.seed, tid)` for offsets/gaps, so Spark and reference
  * implementations see identical data.
  */
object TimeSeriesGen {

  /** One generated data point row. */
  final case class Point(tid: Int, ts: Long, value: Float)

  /** A fully resolved series to generate: `cluster` indexes the shared base
    * signal; `offset` is the per-series additive offset (0 for series meant
    * to be identical to their cluster's base).
    */
  final case class SeriesSpec(
      tid: Int,
      cluster: Int,
      offset: Float,
      si: Int,
      startTs: Long,
      ticks: Int,
      gapProb: Double,
      gapLenMax: Int,
      seed: Long,
  )

  /** A generated data set: raw points, per-series metadata and dimensions. */
  final case class Dataset(
      name: String,
      points: DataFrame,
      series: IndexedSeq[TimeSeriesMeta],
      dims: Seq[DimensionSpec],
      specs: IndexedSeq[SeriesSpec],
  ) {
    /** Number of data points actually generated (gaps excluded). */
    lazy val pointCount: Long = points.count()
  }

  private val Q = 1024.0f

  /** Quantize to a multiple of 2⁻¹⁰ (exactly representable as Float). */
  @inline def quantize(x: Double): Float = Math.round(x * Q) / Q

  /** The cluster's base signal: piecewise constant / linear / random-walk
    * regimes, quantized and bounded.
    */
  def baseSignal(seed: Long, cluster: Int, ticks: Int): Array[Float] = {
    val rng = new Random(seed * 1000003L + cluster)
    val out = new Array[Float](ticks)
    var level = 100.0 + rng.nextInt(900) // cluster's operating point
    var t = 0
    while (t < ticks) {
      val regimeLen = math.min(20 + rng.nextInt(180), ticks - t)
      rng.nextInt(3) match {
        case 0 => // constant
          val v = quantize(level)
          var i = 0
          while (i < regimeLen) { out(t + i) = v; i += 1 }
        case 1 => // linear ramp with an exactly representable slope
          val slope = quantize((rng.nextDouble() - 0.5) * 0.5)
          var i = 0
          while (i < regimeLen) {
            out(t + i) = quantize(level) + slope * i // exact float arithmetic
            i += 1
          }
          level = out(t + regimeLen - 1).toDouble
        case 2 => // noisy regime: relative random walk with occasional jumps,
          // so a 10% error bound does not swallow the whole regime and the
          // lossless type stays in play (paper Figures 17-19)
          var cur = level
          var i = 0
          while (i < regimeLen) {
            cur += (rng.nextDouble() - 0.5) * 0.06 * math.max(50.0, math.abs(cur))
            if (rng.nextDouble() < 0.04) cur += (rng.nextDouble() - 0.5) * 0.5 * cur
            cur = math.max(25.0, math.min(4000.0, cur))
            out(t + i) = quantize(cur)
            i += 1
          }
          level = out(t + regimeLen - 1).toDouble
      }
      level = math.max(50.0, math.min(4000.0, level))
      t += regimeLen
    }
    out
  }

  /** Materialize one series: apply its offset to the cluster base and punch
    * gaps; gapped ticks produce NO row (paper Section II, Figure 2).
    */
  def seriesPoints(spec: SeriesSpec): IndexedSeq[Point] = {
    val base = baseSignal(spec.seed, spec.cluster, spec.ticks)
    val rng  = new Random(spec.seed * 7919L + spec.tid)
    val out  = new ArrayBuffer[Point](spec.ticks)
    var gapLeft = 0
    var t = 0
    while (t < spec.ticks) {
      if (gapLeft > 0) gapLeft -= 1
      else {
        if (spec.gapProb > 0 && rng.nextDouble() < spec.gapProb)
          gapLeft = 1 + rng.nextInt(spec.gapLenMax)
        else
          out += Point(spec.tid, spec.startTs + t.toLong * spec.si, base(t) + spec.offset)
      }
      t += 1
    }
    out.toIndexedSeq
  }

  /** Generate the points of many series distributed over the cluster. */
  def pointsDf(spark: SparkSession, specs: Seq[SeriesSpec]): DataFrame = {
    import spark.implicits._
    val n = math.max(1, math.min(specs.length, spark.sparkContext.defaultParallelism * 2))
    spark.createDataset(specs.toSeq)
      .repartition(n)
      .flatMap(seriesPoints)
      .toDF()
  }

  // --- per-series offsets ----------------------------------------------------

  /** Offset of the i-th member of a cluster. Half the clusters are exactly
    * identical across members (the paper's real series correlate bitwise —
    * its ε=0 mini-experiment saves 67.2% by grouping seven series); in the
    * rest, the first `identical` members share the base exactly and the
    * others get a small quantized offset — within the relative bound at
    * moderate ε, so grouped lossy models still fit. Deterministic in
    * (seed, cluster, memberIdx) regardless of iteration order.
    */
  private def offsetFor(seed: Long, cluster: Int, memberIdx: Int, identical: Int): Float = {
    val allSame = new Random(seed * 912931L + cluster).nextDouble() < 0.5
    if (allSame || memberIdx < identical) 0.0f
    else quantize((new Random(seed * 7L + cluster * 977L + memberIdx).nextDouble() - 0.5) * 2.0)
  }

  // --- EP-like ---------------------------------------------------------------

  /** EP-like data set (energy production): many short series, two 2-level
    * dimensions `Production: Type→Entity` and `Measure: Category→Concrete`.
    * Correlation clusters are (entity, category): the concretes of a category
    * measured on one entity. SF=0.1 ≈ 2 000 series × 5 000 ticks ≈ 10M points.
    */
  def epLike(spark: SparkSession, sf: Double = 0.01, seed: Long = 42,
             gapProb: Double = 0.002, gapLenMax: Int = 20): Dataset = {
    val nEntities  = math.max(2, (5000 * sf).toInt)
    val ticks      = math.max(64, (50000 * sf).toInt)
    val si         = 60000 // SI = 60 s like EP
    val categories = Seq(
      "power"   -> Seq("production_mwh", "production_peak"),
      "weather" -> Seq("wind_speed", "humidity"),
    )
    val dims = Seq(
      DimensionSpec("Production", IndexedSeq("Type", "Entity")),
      DimensionSpec("Measure", IndexedSeq("Category", "Concrete")),
    )
    val specs  = ArrayBuffer.empty[SeriesSpec]
    val series = ArrayBuffer.empty[TimeSeriesMeta]
    var tid     = 1
    var cluster = 0
    for (e <- 0 until nEntities) {
      val entityType = s"type${e % 3}"
      for ((cat, concretes) <- categories) {
        concretes.zipWithIndex.foreach { case (concrete, ci) =>
          specs += SeriesSpec(tid, cluster, offsetFor(seed, cluster, ci, identical = 1),
                              si, 0L, ticks, gapProb, gapLenMax, seed)
          series += TimeSeriesMeta(tid, si,
            dims = Map(
              "Production" -> IndexedSeq(entityType, s"entity$e"),
              "Measure"    -> IndexedSeq(cat, concrete)),
            source = s"ep/entity$e/$concrete.gz")
          tid += 1
        }
        cluster += 1
      }
    }
    Dataset("EP", pointsDf(spark, specs.toSeq), series.toIndexedSeq, dims, specs.toIndexedSeq)
  }

  // --- EF-like ---------------------------------------------------------------

  /** EF-like data set (wind-park sensors): few long series, dimensions
    * `Location: Country→Park→Entity` (3 levels) and `Measure:
    * Category→Concrete`. Correlation clusters are (park, concrete): the same
    * measurement on all turbines of a park (the paper's best grouping for
    * EF). SF=0.1 ≈ 200 series × 25 000 ticks ≈ 5M points.
    */
  def efLike(spark: SparkSession, sf: Double = 0.01, seed: Long = 43,
             gapProb: Double = 0.001, gapLenMax: Int = 50): Dataset = {
    val parks      = 5
    val turbines   = 8
    val ticks      = math.max(64, (250000 * sf).toInt)
    val si         = 200 // EF is pre-processed to 200 ms (paper Section VII-B)
    val measures = Seq(
      "speed"       -> Seq("rotation_speed", "generator_speed"),
      "temperature" -> Seq("nacelle_temp", "oil_temp", "ambient_temp"),
    )
    val dims = Seq(
      DimensionSpec("Location", IndexedSeq("Country", "Park", "Entity")),
      DimensionSpec("Measure", IndexedSeq("Category", "Concrete")),
    )
    val specs  = ArrayBuffer.empty[SeriesSpec]
    val series = ArrayBuffer.empty[TimeSeriesMeta]
    var tid = 1
    val concretes = measures.flatMap(_._2)
    // cluster id = park * |concretes| + concrete index
    for (p <- 0 until parks; t <- 0 until turbines) {
      val country = s"country${p % 2}"
      measures.foreach { case (cat, cs) =>
        cs.foreach { concrete =>
          val cluster = p * concretes.length + concretes.indexOf(concrete)
          specs += SeriesSpec(tid, cluster, offsetFor(seed, cluster, t, identical = 2),
                              si, 0L, ticks, gapProb, gapLenMax, seed)
          series += TimeSeriesMeta(tid, si,
            dims = Map(
              "Location" -> IndexedSeq(country, s"park$p", s"turbine${p}_$t"),
              "Measure"  -> IndexedSeq(cat, concrete)),
            source = s"ef/park$p/turbine$t/$concrete.gz")
          tid += 1
        }
      }
    }
    Dataset("EF", pointsDf(spark, specs.toSeq), series.toIndexedSeq, dims, specs.toIndexedSeq)
  }

  // --- HD-like ---------------------------------------------------------------

  /** HD-like data set (financial, histdata.com): one 3-level dimension
    * `Forex: Category→Pair→Stream`; clusters are pairs (a pair's bid/ask
    * streams are near-identical). SF=0.1 ≈ 320 series × 15 000 ticks ≈ 5M
    * points.
    */
  def hdLike(spark: SparkSession, sf: Double = 0.01, seed: Long = 44,
             gapProb: Double = 0.005, gapLenMax: Int = 30): Dataset = {
    val nCategories = 10
    val pairsPerCat = 16
    val ticks       = math.max(64, (150000 * sf).toInt)
    val si          = 60000
    val streams     = Seq("bid", "ask")
    val dims = Seq(DimensionSpec("Forex", IndexedSeq("Category", "Pair", "Stream")))
    val specs  = ArrayBuffer.empty[SeriesSpec]
    val series = ArrayBuffer.empty[TimeSeriesMeta]
    var tid = 1
    var cluster = 0
    for (c <- 0 until nCategories; p <- 0 until pairsPerCat) {
      streams.zipWithIndex.foreach { case (s, siIdx) =>
        specs += SeriesSpec(tid, cluster, offsetFor(seed, cluster, siIdx, identical = 1),
                            si, 0L, ticks, gapProb, gapLenMax, seed)
        series += TimeSeriesMeta(tid, si,
          dims = Map("Forex" -> IndexedSeq(s"cat$c", s"pair${c}_$p", s)),
          source = s"hd/cat$c/pair$p/$s.csv")
        tid += 1
      }
      cluster += 1
    }
    Dataset("HD", pointsDf(spark, specs.toSeq), series.toIndexedSeq, dims, specs.toIndexedSeq)
  }
}
