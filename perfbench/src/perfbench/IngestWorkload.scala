package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.bench.Stores
import repro.core.ModelarDB
import repro.core.golemm.GolemmConfig
import repro.data.TimeSeriesGen

/** `ingest`: repeated bulk loads of one EP-like data set into a fresh store.
  * The input DataFrame is cached before timing, so each load measures the
  * shuffle and sort, GOLEMM fitting, split/merge and segment encode/write of
  * `ModelarDB.ingest`; the query layers do no work here.
  */
final class IngestWorkload(ctx: Ctx, seed: Long, sf: Double) extends Workload {
  private val eps                      = 10.0
  private var ds: TimeSeriesGen.Dataset = _
  private var points: DataFrame        = _
  private var expected                 = 0L
  private var golemm: GolemmConfig     = _
  private var mdbSetup: ModelarDB.Setup = _
  private var lastStore: String        = _
  private var storeBytes               = 0L
  private var errorPct                 = Double.NaN

  override def conditions: Seq[(String, Any)] = Seq(
    "dataset" -> "EP-like", "sf" -> sf, "epsilon_pct" -> eps,
    "grouping" -> "+GB", "points" -> expected, "series" -> ds.series.length,
    "groups" -> mdbSetup.catalog.groups.length)

  override def setup(): Unit = {
    if (points != null) points.unpersist()
    ds = Workload.balanced(ctx.spark, new java.util.SplittableRandom(seed),
                           TimeSeriesGen.epLike(ctx.spark, sf = sf, _))
    expected = ds.specs.iterator.map(s => TimeSeriesGen.seriesPoints(s).length.toLong).sum
    points   = ds.points.cache()
    val cached = points.count()
    require(cached == expected, s"generated DataFrame has $cached points, expected $expected")
    val (_, clauses, g) = Stores.mdbVariants(ds.name, eps).head
    golemm   = g
    mdbSetup = ctx.setup(ModelarDB.Config(storePath = ctx.freshDir("grouping"), golemm = g),
                         ds.series, ds.dims, clauses)
  }

  override def mixLength: Int = 1

  override def op(i: Int): Op = Op("load", expected, () => {
    val dir   = ctx.freshDir("load")
    val stats = ctx.ingest(ModelarDB.Config(storePath = dir, golemm = golemm), mdbSetup, points)
    () => {
      if (lastStore != null) Ctx.delete(new java.io.File(lastStore))
      lastStore  = dir
      storeBytes = stats.storeBytes
      if (stats.points == expected) None
      else Some(s"load ingested ${stats.points} points, generated $expected")
    }
  })

  /** Read the last store back: every generated (tid, ts) once, each within ε. */
  override def finish(): Seq[String] = {
    if (lastStore == null) return Seq("no load completed")
    val cfg = ModelarDB.Config(storePath = lastStore, golemm = golemm)
    val dp  = ctx.query(lastStore)(ModelarDB.dataPointView(ctx.spark, cfg, mdbSetup.catalog)
      .agg(count(lit(1))))
    val row = ctx.query(lastStore) {
      ModelarDB.dataPointView(ctx.spark, cfg, mdbSetup.catalog)
        .join(points.withColumnRenamed("value", "orig"), Seq("tid", "ts"))
        .agg(count(lit(1)),
             max(abs(col("orig") - col("value")) - lit(eps / 100.0) * abs(col("orig"))),
             sum(abs(col("orig") - col("value"))), sum(abs(col("orig"))))
    }.head
    errorPct = 100.0 * row.getDouble(2) / row.getDouble(3)
    Seq(
      Option.when(dp.head.getLong(0) != expected)(s"read-back has ${dp.head.getLong(0)} points, expected $expected"),
      Option.when(row.getLong(0) != expected)(s"read-back matched ${row.getLong(0)} of $expected points"),
      Option.when(row.getDouble(1) > 1e-4)(s"read-back exceeds the ε bound by ${row.getDouble(1)}"),
    ).flatten
  }

  override def bytesPerPoint: Double = storeBytes.toDouble / expected

  override def avgErrorPct: Double = errorPct

  override def layerInput: LayerInput =
    LayerInput(mdbSetup.catalog, ds.specs.map(s => s.tid -> s).toMap, golemm, lastStore)
}
