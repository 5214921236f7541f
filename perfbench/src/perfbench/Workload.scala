package perfbench

import java.util.SplittableRandom

import org.apache.spark.sql.SparkSession

import repro.bench.Experiments
import repro.core.Catalog
import repro.core.golemm.GolemmConfig
import repro.data.TimeSeriesGen

/** One operation of a workload's closed loop. `run` is timed and returns the
  * untimed check of its answer, which yields a failure message or None.
  */
final case class Op(kind: String, points: Long, run: () => () => Option[String])

/** What the Spark-free layer passes replay: the workload's groups, the specs
  * their members are generated from, its GOLEMM configuration and its store.
  */
final case class LayerInput(
    catalog: Catalog,
    specs: Map[Int, TimeSeriesGen.SeriesSpec],
    golemm: GolemmConfig,
    storePath: String,
)

/** A benchmark workload: inputs made from the seed, a store, and a mix of
  * operations whose answers are checked against the generated points.
  */
trait Workload {

  /** Sizes and inputs, recorded with every result. */
  def conditions: Seq[(String, Any)]

  /** Generate the inputs, build the store and the expected answers, from
    * scratch; a second call replaces what the first built.
    */
  def setup(): Unit

  /** Operations per pass over the mix. */
  def mixLength: Int

  /** The `i`-th operation of the closed loop. */
  def op(i: Int): Op

  /** Untimed checks after the loop: failure messages. */
  def finish(): Seq[String]

  /** Store bytes per ingested data point. */
  def bytesPerPoint: Double

  /** The paper's average error Σ|rv − av| / Σ|rv| · 100 over the data points
    * this workload read back.
    */
  def avgErrorPct: Double

  def layerInput: LayerInput
}

object Workload {

  /** Generated data sets the odd clusters take their offsets from. */
  val OffsetSources = 16

  /** A generated data set with the composition `TimeSeriesGen` documents:
    * half the correlation clusters have identical members, the other half
    * small per-member offsets, each cluster drawn independently.
    *
    * The generator seeds its `java.util.Random`s with `seed·K + cluster`
    * (and `+ member`), and such neighbouring seeds draw nearly the same first
    * number. So in one generated data set either every cluster is identical
    * or none is, starting levels are alike, and every cluster gets the same
    * pattern of offsets. That makes the inputs, and every size and time,
    * depend on a handful of draws per seed. Here each cluster gets a seed of
    * its own from `rng`; the even ones (in order of first appearance) keep
    * identical members; the odd ones take the offsets that `make` generated
    * for them in one of [[OffsetSources]] data sets made from seeds of `rng`
    * (ones whose clusters have offsets). With `replicas` > 1 the data set is
    * `Experiments.duplicate`d first, and every replica's clusters are drawn
    * independently too.
    */
  def balanced(spark: SparkSession, rng: SplittableRandom, make: Long => TimeSeriesGen.Dataset,
               replicas: Int = 1): TimeSeriesGen.Dataset = {
    def withOffsets(): TimeSeriesGen.Dataset =
      Iterator.continually(make(rng.nextLong(1L, 1L << 40))).take(64)
        .find(_.specs.exists(_.offset != 0f))
        .getOrElse(sys.error("no generated data set with offsets in 64 seeds"))
    val sources  = IndexedSeq.fill(OffsetSources)(withOffsets())
    val base     = Experiments.duplicate(spark, sources.head, replicas)
    val perCopy  = sources.head.specs.length
    val clusters = base.specs.map(_.cluster).distinct.zipWithIndex.toMap
    val clusterSeed = clusters.keys.toSeq.sorted.map(c => c -> rng.nextLong(1L, 1L << 40)).toMap
    val specs = base.specs.indices.map { i =>
      val s = base.specs(i)
      val k = clusters(s.cluster)
      val offset = if (k % 2 == 0) 0f else sources((k / 2) % sources.length).specs(i % perCopy).offset
      s.copy(seed = clusterSeed(s.cluster), offset = offset)
    }
    base.copy(points = TimeSeriesGen.pointsDf(spark, specs), specs = specs)
  }

  /** Per tid, the generated value at each tick, NaN in gaps. */
  def rawValues(specs: Seq[TimeSeriesGen.SeriesSpec]): Map[Int, Array[Float]] =
    specs.map { s =>
      val vals = Array.fill(s.ticks)(Float.NaN)
      TimeSeriesGen.seriesPoints(s).foreach(p => vals(((p.ts - s.startTs) / s.si).toInt) = p.value)
      s.tid -> vals
    }.toMap

  def within(approx: Double, exact: Double, tol: Double): Boolean =
    math.abs(approx - exact) <= tol
}
