package perfbench

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.bench.Stores
import repro.core.ModelarDB
import repro.core.golemm.GolemmConfig
import repro.core.views.Udafs
import repro.data.TimeSeriesGen

/** `query-select`: small answers from an EP-like store at ε = 10 % that was
  * written by appending time-shifted batches, like the paper's unbounded
  * ingestion run. The mix is S-AGG (one series; five series GROUP BY tid)
  * and P/R (one series over 500 ticks; all series over a 20-tick window),
  * with targets from a seeded pool that spans all batches. Here fixed
  * planning and scheduling cost, file pruning on Gid/time push-down and the
  * closed-form aggregates of the lossy models dominate.
  */
final class QuerySelectWorkload(ctx: Ctx, seed: Long, sf: Double, batches: Int) extends Workload {
  private val eps                    = 10.0
  private var poolSeed               = 0L
  private var ds: TimeSeriesGen.Dataset = _
  private var cfg: ModelarDB.Config     = _
  private var mdbSetup: ModelarDB.Setup = _
  private var golemm: GolemmConfig      = _
  private var raw: Map[Int, Array[Float]] = _
  private var ticks = 0
  private var si    = 0
  private var nPoints = 0L
  private var storeBytes = 0L
  private var absErr = 0.0
  private var absRaw = 0.0

  private val pool = 24
  private var targets: IndexedSeq[(Int, IndexedSeq[Int], (Int, Int), Int)] = _

  override def conditions: Seq[(String, Any)] = Seq(
    "dataset" -> "EP-like", "sf" -> sf, "batches" -> batches,
    "pool_seed" -> poolSeed, "epsilon_pct" -> eps, "grouping" -> "+GB", "points" -> nPoints,
    "series" -> ds.series.length, "groups" -> mdbSetup.catalog.groups.length)

  override def setup(): Unit = {
    Udafs.register(ctx.spark)
    if (cfg != null) Ctx.delete(new java.io.File(cfg.storePath))
    val seeds  = new java.util.SplittableRandom(seed)
    ds       = Workload.balanced(ctx.spark, seeds.split(), TimeSeriesGen.epLike(ctx.spark, sf = sf, _))
    poolSeed = seeds.split().nextLong()
    raw   = Workload.rawValues(ds.specs)
    ticks = ds.specs.head.ticks
    si    = ds.specs.head.si
    require(ds.specs.forall(s => s.ticks == ticks && s.si == si && s.startTs == 0L),
            "batches are shifted by whole spans of aligned series")
    nPoints = batches.toLong * raw.valuesIterator.map(_.count(!_.isNaN).toLong).sum

    // Target k reads batch k mod `batches`, so every pool spans all batches
    // alike: files matched and segments scanned depend on the batch.
    val rng  = new java.util.Random(poolSeed)
    val tids = ds.series.map(_.tid)
    def tid() = tids(rng.nextInt(tids.length))
    def start(k: Int, len: Int) = math.min((k % batches) * ticks + rng.nextInt(ticks), batches * ticks - len)
    targets = (0 until pool).map(k => (
      tid(),
      rng.ints(0, tids.length).distinct().limit(5).toArray.toIndexedSeq.map(tids).sorted,
      (tid(), start(k, 500)),
      start(k, 20)))

    val (_, clauses, g) = Stores.mdbVariants(ds.name, eps).head
    golemm   = g
    cfg      = ModelarDB.Config(storePath = ctx.freshDir("select-store"), golemm = g)
    mdbSetup = ctx.setup(cfg, ds.series, ds.dims, clauses)
    val points = ds.points.cache()
    points.count()
    val span   = ticks.toLong * si
    val stored = (0 until batches).map { r =>
      ctx.ingest(cfg, mdbSetup, points.withColumn("ts", col("ts") + lit(r * span))).points
    }.sum
    points.unpersist()
    require(stored == nPoints, s"store holds $stored points, generated $nPoints")
    storeBytes = repro.core.storage.SegmentSource.storeBytes(cfg.storePath)
  }

  private def segAgg(f: String) = expr(s"$f(${Udafs.SegArgsSql})")
  private def query(build: => DataFrame): Array[Row] = ctx.query(cfg.storePath)(build)

  /** Raw points of `tid` over global ticks [from, to] across all batches. */
  private def rawRange(tid: Int, from: Int, to: Int): Iterator[(Long, Float)] =
    (from to to).iterator.map(g => (g.toLong * si, raw(tid)(g % ticks))).filterNot(_._2.isNaN)

  private def allPoints(tid: Int): Iterator[Float] = rawRange(tid, 0, batches * ticks - 1).map(_._2)

  private def tol(v: Double): Double = eps / 100.0 * math.abs(v) + 1e-4

  /** Aggregates of a lossy store: each within ε/100 of the sum of |v|. */
  private def checkAgg(what: String, tid: Int, s: Double, mn: Option[Double], mx: Option[Double]): Option[String] = {
    val vs     = allPoints(tid).map(_.toDouble).toArray
    val absSum = vs.map(math.abs).sum
    val bound  = vs.map(math.abs).max
    val ok = Workload.within(s, vs.sum, eps / 100.0 * absSum + 1e-4 * vs.length) &&
      mn.forall(Workload.within(_, vs.min, tol(bound))) &&
      mx.forall(Workload.within(_, vs.max, tol(bound)))
    Option.when(!ok)(s"$what tid $tid: got (sum, min, max) = ($s, $mn, $mx), " +
      s"exact (${vs.sum}, ${vs.min}, ${vs.max})")
  }

  /** Points of a lossy store: the same (tid, ts) set, each value within ε. */
  private def checkPoints(what: String, got: Seq[(Int, Long, Float)],
                          want: Seq[(Int, Long, Float)]): Option[String] = {
    val exact = want.map { case (t, ts, v) => (t, ts) -> v }.toMap
    val keys  = got.map { case (t, ts, _) => (t, ts) }
    if (keys.length != exact.size || keys.toSet != exact.keySet)
      Some(s"$what: ${keys.length} points, expected ${exact.size}")
    else {
      got.foreach { case (t, ts, v) =>
        val rv = exact((t, ts)); absErr += math.abs(rv - v); absRaw += math.abs(rv)
      }
      got.find { case (t, ts, v) => !Workload.within(v, exact((t, ts)), tol(exact((t, ts)))) }
        .map(p => s"$what: $p is not within ε of ${exact((p._1, p._2))}")
    }
  }

  override val mixLength: Int = 4

  override def op(i: Int): Op = {
    val (one, five, (prTid, prFrom), winFrom) = targets((i / mixLength) % pool)
    i % mixLength match {
      case 0 => Op("sagg", allPoints(one).length.toLong, () => {
        val r = query(ModelarDB.segmentView(ctx.spark, cfg, mdbSetup.catalog, Some(Seq(one)))
          .agg(segAgg("SUM_S"), segAgg("MIN_S"), segAgg("MAX_S"))).head
        () => checkAgg("S-AGG", one, r.getDouble(0), Some(r.getDouble(1)), Some(r.getDouble(2)))
      })
      case 1 => Op("sagg", five.map(allPoints(_).length.toLong).sum, () => {
        val rows = query(ModelarDB.segmentView(ctx.spark, cfg, mdbSetup.catalog, Some(five))
          .groupBy("tid").agg(segAgg("SUM_S")))
        () => {
          val got = rows.map(r => r.getInt(0) -> r.getDouble(1)).toMap
          if (got.keySet != five.toSet) Some(s"S-AGG by tid: tids ${got.keySet}, expected $five")
          else five.iterator.flatMap(t => checkAgg("S-AGG by tid", t, got(t), None, None)).nextOption()
        }
      })
      case 2 =>
        val want = rawRange(prTid, prFrom, prFrom + 499).map { case (ts, v) => (prTid, ts, v) }.toSeq
        Op("pr", want.length.toLong, () => {
          val rows = query(ModelarDB.dataPointView(ctx.spark, cfg, mdbSetup.catalog, Some(Seq(prTid)),
            Some((prFrom.toLong * si, (prFrom + 499L) * si))).select("ts", "value"))
          () => checkPoints("P/R one series", rows.map(r => (prTid, r.getLong(0), r.getFloat(1))).toSeq, want)
        })
      case _ =>
        val want = ds.series.flatMap(s => rawRange(s.tid, winFrom, winFrom + 19)
          .map { case (ts, v) => (s.tid, ts, v) })
        Op("pr", want.length.toLong, () => {
          val rows = query(ModelarDB.dataPointView(ctx.spark, cfg, mdbSetup.catalog, None,
            Some((winFrom.toLong * si, (winFrom + 19L) * si))).select("tid", "ts", "value"))
          () => checkPoints("P/R window", rows.map(r => (r.getInt(0), r.getLong(1), r.getFloat(2))).toSeq, want)
        })
    }
  }

  override def finish(): Seq[String] = Nil

  override def bytesPerPoint: Double = storeBytes.toDouble / nPoints

  /** Over every P/R point the run returned. */
  override def avgErrorPct: Double = if (absRaw == 0) Double.NaN else 100.0 * absErr / absRaw

  override def layerInput: LayerInput =
    LayerInput(mdbSetup.catalog, ds.specs.map(s => s.tid -> s).toMap, golemm, cfg.storePath)
}
