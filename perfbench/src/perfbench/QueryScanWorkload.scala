package perfbench

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.bench.Stores
import repro.core.ModelarDB
import repro.core.golemm.GolemmConfig
import repro.core.views.{TimeCube, Udafs}
import repro.data.TimeSeriesGen

/** `query-scan`: full-scan aggregates over an EF-like store with wide groups,
  * ingested once at ε = 0, so every segment is lossless and every answer is
  * checked exactly (generated values are multiples of 2⁻¹⁰, so double sums
  * are exact in any order). The mix is L-AGG through the Segment View and
  * through the Data Point View, and M-AGG through `TimeCube.cube`.
  */
final class QueryScanWorkload(ctx: Ctx, seed: Long, sf: Double, replicas: Int) extends Workload {
  private val eps              = 0.0
  private var ds: TimeSeriesGen.Dataset = _
  private var cfg: ModelarDB.Config     = _
  private var mdbSetup: ModelarDB.Setup = _
  private var golemm: GolemmConfig      = _
  private var nPoints = 0L
  private var storeBytes = 0L

  // Expected answers, from the generated points.
  private var total: (Double, Double, Double) = _
  private var sumByTid: Map[Int, Double]      = _
  private var cubePark: Map[(String, Long), Double]         = _
  private var cubeParkTid: Map[(String, Int, Long), Double] = _

  override def conditions: Seq[(String, Any)] = Seq(
    "dataset" -> "EF-like", "sf" -> sf, "replicas" -> replicas, "epsilon_pct" -> eps,
    "grouping" -> "+GB", "points" -> nPoints, "series" -> ds.series.length,
    "groups" -> mdbSetup.catalog.groups.length)

  override def setup(): Unit = {
    Udafs.register(ctx.spark)
    if (cfg != null) Ctx.delete(new java.io.File(cfg.storePath))
    ds = Workload.balanced(ctx.spark, new java.util.SplittableRandom(seed),
                           TimeSeriesGen.efLike(ctx.spark, sf = sf, _), replicas)
    val parkOf = ds.series.map(s => s.tid -> s.dims("Location")(1)).toMap
    var (sm, mn, mx) = (0.0, Double.PositiveInfinity, Double.NegativeInfinity)
    val byTid = mutable.HashMap.empty[Int, Double]
    val c1    = mutable.HashMap.empty[(String, Long), Double]
    val c2    = mutable.HashMap.empty[(String, Int, Long), Double]
    var n     = 0L
    ds.specs.foreach { s =>
      TimeSeriesGen.seriesPoints(s).foreach { p =>
        val v = p.value.toDouble
        val b = TimeCube.Hour.floor(p.ts)
        sm += v; mn = math.min(mn, v); mx = math.max(mx, v); n += 1
        byTid(p.tid) = byTid.getOrElse(p.tid, 0.0) + v
        c1((parkOf(p.tid), b)) = c1.getOrElse((parkOf(p.tid), b), 0.0) + v
        c2((parkOf(p.tid), p.tid, b)) = c2.getOrElse((parkOf(p.tid), p.tid, b), 0.0) + v
      }
    }
    total = (sm, mn, mx); sumByTid = byTid.toMap; cubePark = c1.toMap; cubeParkTid = c2.toMap
    nPoints = n

    val (_, clauses, g) = Stores.mdbVariants(ds.name, eps).head
    golemm   = g
    cfg      = ModelarDB.Config(storePath = ctx.freshDir("scan-store"), golemm = g)
    mdbSetup = ctx.setup(cfg, ds.series, ds.dims, clauses)
    val points = ds.points.cache()
    points.count()
    val stats  = ctx.ingest(cfg, mdbSetup, points)
    points.unpersist()
    require(stats.points == nPoints, s"store holds ${stats.points} points, generated $nPoints")
    storeBytes = stats.storeBytes
  }

  private def segView: DataFrame = ModelarDB.segmentView(ctx.spark, cfg, mdbSetup.catalog)
  private def dpView: DataFrame  = ModelarDB.dataPointView(ctx.spark, cfg, mdbSetup.catalog)
  private def segAgg(f: String)  = expr(s"$f(${Udafs.SegArgsSql})")

  private def query(build: => DataFrame): Array[Row] = ctx.query(cfg.storePath)(build)

  private def checkTotal(what: String, s: Double, mn: Double, mx: Double): Option[String] =
    Option.when((s, mn, mx) != total)(s"$what: (sum, min, max) = ${(s, mn, mx)}, expected $total")

  private def checkMap[K](what: String, got: Map[K, Double], want: Map[K, Double]): Option[String] =
    if (got == want) None
    else {
      val bad = (got.keySet ++ want.keySet).find(k => got.get(k) != want.get(k)).get
      Some(s"$what: ${got.size} rows, expected ${want.size}; at $bad got ${got.get(bad)}, expected ${want.get(bad)}")
    }

  override val mixLength: Int = 6

  override def op(i: Int): Op = i % mixLength match {
    case 0 => Op("lagg_seg", nPoints, () => {
      val r = query(segView.agg(segAgg("SUM_S"), segAgg("MIN_S"), segAgg("MAX_S"))).head
      () => checkTotal("L-AGG (S)", r.getDouble(0), r.getDouble(1), r.getDouble(2))
    })
    case 1 => Op("lagg_seg", nPoints, () => {
      val rows = query(segView.groupBy("tid").agg(segAgg("SUM_S")))
      () => checkMap("L-AGG (S) by tid", rows.map(r => r.getInt(0) -> r.getDouble(1)).toMap, sumByTid)
    })
    case 2 => Op("lagg_dp", nPoints, () => {
      val r = query(dpView.agg(sum("value"), min("value"), max("value"))).head
      () => checkTotal("L-AGG (DP)", r.getDouble(0), r.getFloat(1).toDouble, r.getFloat(2).toDouble)
    })
    case 3 => Op("lagg_dp", nPoints, () => {
      val rows = query(dpView.groupBy("tid").agg(sum("value")))
      () => checkMap("L-AGG (DP) by tid", rows.map(r => r.getInt(0) -> r.getDouble(1)).toMap, sumByTid)
    })
    case 4 => Op("magg", nPoints, () => {
      val rows = query(TimeCube.cube(segView, TimeCube.Hour, "sum", Seq("location_park")))
      () => checkMap("M-AGG park×hour",
        rows.map(r => (r.getString(0), r.getLong(1)) -> r.getDouble(2)).toMap, cubePark)
    })
    case _ => Op("magg", nPoints, () => {
      val rows = query(TimeCube.cube(segView, TimeCube.Hour, "sum", Seq("location_park", "tid")))
      () => checkMap("M-AGG park×tid×hour",
        rows.map(r => (r.getString(0), r.getInt(1), r.getLong(2)) -> r.getDouble(3)).toMap, cubeParkTid)
    })
  }

  override def finish(): Seq[String] = Nil

  override def bytesPerPoint: Double = storeBytes.toDouble / nPoints

  /** Exact answers at ε = 0 are checked on every query, so the error is 0. */
  override def avgErrorPct: Double = 0.0

  override def layerInput: LayerInput =
    LayerInput(mdbSetup.catalog, ds.specs.map(s => s.tid -> s).toMap, golemm, cfg.storePath)
}
