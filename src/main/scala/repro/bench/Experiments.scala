package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.baselines.{RawStore, ValueGrouping}
import repro.core.ModelarDB
import repro.core.golemm.GolemmConfig
import repro.core.grouping.Correlation
import repro.core.views.{TimeCube, Udafs}
import repro.data.TimeSeriesGen

/** The experiment runners reproducing the paper's evaluation (Section VII).
  * Each returns plain rows; the bench suites render them next to the paper's
  * numbers (EXPERIMENTS.md).
  */
object Experiments {

  // ---------------------------------------------------------------- E1 ----

  final case class IngestRow(system: String, seconds: Double, mPointsPerSec: Double,
                             storeBytes: Long)

  /** Bulk-load throughput of every system (paper Figure 13). */
  def ingestion(spark: SparkSession, ds: TimeSeriesGen.Dataset,
                eps: Double = 10.0): Seq[IngestRow] = {
    val n    = ds.pointCount
    val flat = Stores.flatCatalog(ds)
    val mdbRows = Stores.mdbVariants(ds.name, eps).map { case (name, clauses, g) =>
      val (mdb, secs) = Stores.buildMdb(spark, ds, name, clauses, g)
      IngestRow(name, secs, n / secs / 1e6, mdb.stats.storeBytes)
    }
    val rawRows = RawStore.all.map { store =>
      val (raw, secs) = Stores.buildRaw(ds, flat, store)
      IngestRow(raw.name, secs, n / secs / 1e6, raw.bytes)
    }
    mdbRows ++ rawRows
  }

  /** Ingestion speedup versus the number of partitions — our single-node
    * stand-in for the paper's 1→6 worker scale-out (Figure 13 B/O bars).
    */
  def ingestScaling(spark: SparkSession, ds: TimeSeriesGen.Dataset, eps: Double,
                    partitions: Seq[Int]): Seq[(Int, Double)] =
    partitions.map { p =>
      val (_, secs) = Stores.buildMdb(spark, ds, s"p$p", Seq(Correlation.Auto()),
                                      GolemmConfig(epsilonPct = eps), numPartitions = p)
      (p, secs)
    }

  /** Repeated appends of time-shifted batches into one store — the paper's
    * 1.5-day unbounded-ingestion stability run, compressed into `rounds`
    * micro-batches. Returns per-round throughput (Mpoints/s).
    */
  def ingestStability(spark: SparkSession, ds: TimeSeriesGen.Dataset, eps: Double,
                      rounds: Int): Seq[Double] = {
    val cfg = ModelarDB.Config(storePath = Stores.tmpDir("stab"),
                               golemm = GolemmConfig(epsilonPct = eps))
    val setup = ModelarDB.setup(spark, cfg, ds.series, ds.dims, Seq(Correlation.Auto()))
    val span  = ds.specs.map(s => s.startTs + s.ticks.toLong * s.si).max
    (0 until rounds).map { r =>
      val shifted = ds.points.withColumn("ts", col("ts") + lit(r * span))
      val (stats, secs) = BenchUtil.timed(ModelarDB.ingest(spark, cfg, setup, shifted))
      stats.points / secs / 1e6
    }
  }

  // ------------------------------------------------------------- E2/E3 ----

  final case class CompressionRow(
      dataset: String, system: String, epsPct: Double, bytes: Long,
      segments: Long, perMid: Map[Int, Long],
      splits: Int, merges: Int, splitMergeSharePct: Double,
      groupingSecs: Double, nGroups: Int, avgGroupSize: Double,
      avgErrorPct: Double)

  /** The paper's average query/compression error definition (Section VII-C):
    * `Σ|rv − av| / Σ|rv| · 100` over all ingested points.
    */
  def averageErrorPct(spark: SparkSession, mdb: Stores.Mdb,
                      ds: TimeSeriesGen.Dataset): Double = {
    val rec = ModelarDB.dataPointView(spark, mdb.cfg, mdb.catalog)
    val row = rec.join(ds.points.withColumnRenamed("value", "orig"), Seq("tid", "ts"))
      .select((sum(abs(col("orig") - col("value"))) / sum(abs(col("orig"))) * 100).as("e"))
      .head()
    row.getDouble(0)
  }

  /** Storage and model usage of every MDB variant per error bound plus the
    * industry formats (paper Figures 14–19).
    */
  def compression(spark: SparkSession, ds: TimeSeriesGen.Dataset,
                  epsList: Seq[Double]): Seq[CompressionRow] = {
    val mdbRows = for {
      eps <- epsList
      (name, clauses, g) <- Stores.mdbVariants(ds.name, eps)
    } yield {
      val (mdb, _) = Stores.buildMdb(spark, ds, name, clauses, g)
      val st = mdb.stats
      CompressionRow(
        ds.name, name, eps, st.storeBytes, st.segments, st.perMid,
        st.splits, st.merges,
        100.0 * st.splitMergeNanos / math.max(st.compressNanos, 1),
        mdb.setup.groupingNanos / 1e9,
        mdb.catalog.groups.length,
        ds.series.length.toDouble / mdb.catalog.groups.length,
        averageErrorPct(spark, mdb, ds))
    }
    val flat = Stores.flatCatalog(ds)
    val rawRows = RawStore.all.map { store =>
      val (raw, _) = Stores.buildRaw(ds, flat, store)
      CompressionRow(ds.name, raw.name, 0.0, raw.bytes, 0, Map.empty,
                     0, 0, 0.0, 0.0, ds.series.length, 1.0, 0.0)
    }
    mdbRows ++ rawRows
  }

  /** The offline value-based grouping baseline (Section VII-C). */
  def valueGrouping(spark: SparkSession, ds: TimeSeriesGen.Dataset,
                    epsList: Seq[Double]): Seq[CompressionRow] = {
    val (groups, groupingSecs) = BenchUtil.timed(ValueGrouping.group(ds.points))
    epsList.map { eps =>
      val (mdb, _) = Stores.buildMdbWithGroups(spark, ds, "Value-based", groups,
                                               GolemmConfig(epsilonPct = eps))
      CompressionRow(ds.name, "Value-based", eps, mdb.stats.storeBytes,
                     mdb.stats.segments, mdb.stats.perMid,
                     mdb.stats.splits, mdb.stats.merges, 0.0, groupingSecs,
                     groups.length, ds.series.length.toDouble / groups.length,
                     averageErrorPct(spark, mdb, ds))
    }
  }

  // ---------------------------------------------------------------- E4 ----

  final case class DistanceRow(label: String, distance: Double, bytes: Long,
                               nGroups: Int, avgGroupSize: Double)

  /** Storage versus grouping distance (paper Figure 20). */
  def distanceSweep(spark: SparkSession, ds: TimeSeriesGen.Dataset, eps: Double,
                    distances: Seq[Double]): Seq[DistanceRow] = {
    val auto = repro.core.grouping.Dimensions.autoDistance(ds.dims)
    val rows = distances.map { d =>
      val (mdb, _) = Stores.buildMdb(spark, ds, f"d=$d%.4f",
        Seq(Correlation.Distance(d)), GolemmConfig(epsilonPct = eps))
      val label = if (math.abs(d - auto) < 1e-9) f"$d%.4f (auto)" else f"$d%.4f"
      DistanceRow(label, d, mdb.stats.storeBytes, mdb.catalog.groups.length,
                  ds.series.length.toDouble / mdb.catalog.groups.length)
    }
    val (ungrouped, _) = Stores.buildMdb(spark, ds, "-G", Nil, GolemmConfig(epsilonPct = eps))
    rows :+ DistanceRow("-G (no grouping)", 0.0, ungrouped.stats.storeBytes,
                        ds.series.length, 1.0)
  }

  // ------------------------------------------------------------- E5-E8 ----

  final case class QueryRow(system: String, query: String, seconds: Double)

  /** Everything the query experiments need, built once per data set. */
  final case class QueryEnv(
      ds: TimeSeriesGen.Dataset,
      mdbGb: Stores.Mdb,
      mdbNoG: Stores.Mdb,
      raws: Seq[Stores.Raw],
  )

  def buildQueryEnv(spark: SparkSession, ds: TimeSeriesGen.Dataset,
                    eps: Double = 10.0): QueryEnv = {
    Udafs.register(spark)
    val variants = Stores.mdbVariants(ds.name, eps)
    val (gbName, gbClauses, gbCfg) = variants.head
    val (mdbGb, _)  = Stores.buildMdb(spark, ds, gbName, gbClauses, gbCfg)
    val (mdbNoG, _) = Stores.buildMdb(spark, ds, "MDB+ -G", Nil, GolemmConfig(epsilonPct = eps))
    val flat = Stores.flatCatalog(ds)
    val raws = RawStore.all.map(store => Stores.buildRaw(ds, flat, store)._1)
    val env  = QueryEnv(ds, mdbGb, mdbNoG, raws)
    warmup(spark, env)
    env
  }

  /** Untimed warm-up so the first measured system does not pay the JIT and
    * codegen cost of the whole query path.
    */
  def warmup(spark: SparkSession, env: QueryEnv): Unit = {
    segAggAll(spark, env.mdbGb, Some(Seq(1))).collect()
    segAggAll(spark, env.mdbNoG, Some(Seq(1))).collect()
    ModelarDB.dataPointView(spark, env.mdbGb.cfg, env.mdbGb.catalog, Some(Seq(1))).count()
    env.raws.foreach(_.points(spark, Some(Seq(1))).count())
  }

  private def segAggAll(spark: SparkSession, mdb: Stores.Mdb,
                        tids: Option[Seq[Int]]): DataFrame =
    ModelarDB.segmentView(spark, mdb.cfg, mdb.catalog, tids)
      .agg(expr(s"SUM_S(${Udafs.SegArgsSql})").as("s"),
           expr(s"MIN_S(${Udafs.SegArgsSql})").as("mn"),
           expr(s"MAX_S(${Udafs.SegArgsSql})").as("mx"))

  private def segAggByTid(spark: SparkSession, mdb: Stores.Mdb,
                          tids: Option[Seq[Int]]): DataFrame =
    ModelarDB.segmentView(spark, mdb.cfg, mdb.catalog, tids)
      .groupBy("tid").agg(expr(s"SUM_S(${Udafs.SegArgsSql})").as("s"))

  private def rawAggAll(df: DataFrame): DataFrame =
    df.agg(sum("value").as("s"), min("value").as("mn"), max("value").as("mx"))

  private def rawAggByTid(df: DataFrame): DataFrame =
    df.groupBy("tid").agg(sum("value").as("s"))

  /** L-AGG (paper Figure 21): full-data-set aggregates, half GROUP BY Tid.
    * MDB+ is measured through both the Segment View (S) and Data Point View
    * (DP); the raw stores through their points DataFrames (F/J).
    */
  def largeAgg(spark: SparkSession, env: QueryEnv): Seq[QueryRow] = {
    val rows = Seq.newBuilder[QueryRow]
    rows += QueryRow(s"${env.mdbGb.name} (S)", "L-AGG",
      BenchUtil.queryTime(segAggAll(spark, env.mdbGb, None)) +
      BenchUtil.queryTime(segAggByTid(spark, env.mdbGb, None)))
    rows += QueryRow(s"${env.mdbGb.name} (DP)", "L-AGG",
      BenchUtil.queryTime(rawAggAll(ModelarDB.dataPointView(spark, env.mdbGb.cfg, env.mdbGb.catalog))) +
      BenchUtil.queryTime(rawAggByTid(ModelarDB.dataPointView(spark, env.mdbGb.cfg, env.mdbGb.catalog))))
    rows += QueryRow("MDB+ -G (S)", "L-AGG",
      BenchUtil.queryTime(segAggAll(spark, env.mdbNoG, None)) +
      BenchUtil.queryTime(segAggByTid(spark, env.mdbNoG, None)))
    env.raws.foreach { raw =>
      rows += QueryRow(raw.name, "L-AGG",
        BenchUtil.queryTime(rawAggAll(raw.points(spark))) +
        BenchUtil.queryTime(rawAggByTid(raw.points(spark))))
    }
    rows.result()
  }

  /** S-AGG (paper Figures 23–24): small aggregates — one series, and five
    * series with GROUP BY Tid.
    */
  def smallAgg(spark: SparkSession, env: QueryEnv): Seq[QueryRow] = {
    val one  = Seq(1)
    val five = (1 to 5).toSeq
    val rows = Seq.newBuilder[QueryRow]
    def mdbTime(mdb: Stores.Mdb): Double =
      BenchUtil.queryTime(segAggAll(spark, mdb, Some(one))) +
      BenchUtil.queryTime(segAggByTid(spark, mdb, Some(five)))
    rows += QueryRow(s"${env.mdbGb.name} (S)", "S-AGG", mdbTime(env.mdbGb))
    rows += QueryRow("MDB+ -G (S)", "S-AGG", mdbTime(env.mdbNoG))
    env.raws.foreach { raw =>
      rows += QueryRow(raw.name, "S-AGG",
        BenchUtil.queryTime(rawAggAll(raw.points(spark, Some(one)))) +
        BenchUtil.queryTime(rawAggByTid(raw.points(spark, Some(five)))))
    }
    rows.result()
  }

  /** M-AGG (paper Figures 25–28): multi-dimensional aggregates GROUP BY a
    * time roll-up × a dimension level (M-AGG-1) and additionally Tid
    * (M-AGG-2). Our synthetic span is days, so the roll-up level is HOUR
    * where the paper uses MONTH over 508 days — same bucket count order.
    */
  def multiDimAgg(spark: SparkSession, env: QueryEnv, dimCol: String): Seq[QueryRow] = {
    val rows = Seq.newBuilder[QueryRow]
    def mdbCube(mdb: Stores.Mdb, groupCols: Seq[String]): Double = {
      val sv = ModelarDB.segmentView(spark, mdb.cfg, mdb.catalog)
      BenchUtil.queryTime(TimeCube.cube(sv, TimeCube.Hour, "sum", groupCols))
    }
    rows += QueryRow(s"${env.mdbGb.name}", "M-AGG-1", mdbCube(env.mdbGb, Seq(dimCol)))
    rows += QueryRow(s"${env.mdbGb.name}", "M-AGG-2", mdbCube(env.mdbGb, Seq(dimCol, "tid")))
    rows += QueryRow("MDB+ -G", "M-AGG-1", mdbCube(env.mdbNoG, Seq(dimCol)))
    rows += QueryRow("MDB+ -G", "M-AGG-2", mdbCube(env.mdbNoG, Seq(dimCol, "tid")))

    val flat = env.mdbNoG.catalog
    def rawCube(raw: Stores.Raw, withTid: Boolean): Double = {
      val base = if (raw.store.carriesDims) raw.points(spark)
                 else Stores.withDims(raw.points(spark), flat)
      val bucketed = base.withColumn("bucket", (col("ts") / 3600000L).cast("long") * 3600000L)
      val cols = if (withTid) Seq(dimCol, "tid", "bucket") else Seq(dimCol, "bucket")
      BenchUtil.queryTime(bucketed.groupBy(cols.map(col): _*).agg(sum("value").as("value")))
    }
    env.raws.foreach { raw =>
      rows += QueryRow(raw.name, "M-AGG-1", rawCube(raw, withTid = false))
      rows += QueryRow(raw.name, "M-AGG-2", rawCube(raw, withTid = true))
    }
    rows.result()
  }

  /** P/R (paper Section VII-C): point/range extraction — one series over a
    * sub-range, and a narrow time window across all series.
    */
  def pointRange(spark: SparkSession, env: QueryEnv): Seq[QueryRow] = {
    val si    = env.ds.series.head.si
    val tid   = 7
    val from  = 100L * si
    val to    = 600L * si
    val winTo = 20L * si
    val rows  = Seq.newBuilder[QueryRow]

    def mdbTime(mdb: Stores.Mdb): Double =
      BenchUtil.queryTime(
        ModelarDB.dataPointView(spark, mdb.cfg, mdb.catalog, Some(Seq(tid)), Some((from, to)))
          .select("ts", "value")) +
      BenchUtil.queryTime(
        ModelarDB.dataPointView(spark, mdb.cfg, mdb.catalog, None, Some((0L, winTo)))
          .select("tid", "ts", "value"))
    rows += QueryRow(s"${env.mdbGb.name}", "P/R", mdbTime(env.mdbGb))
    rows += QueryRow("MDB+ -G", "P/R", mdbTime(env.mdbNoG))
    env.raws.foreach { raw =>
      rows += QueryRow(raw.name, "P/R",
        BenchUtil.queryTime(
          raw.points(spark, Some(Seq(tid)))
            .filter(col("ts") >= from && col("ts") <= to).select("ts", "value")) +
        BenchUtil.queryTime(
          raw.points(spark).filter(col("ts") <= winTo).select("tid", "ts", "value")))
    }
    rows.result()
  }

  /** Near-linear query scalability (paper Figure 22): L-AGG runtime on 1x,
    * 2x and 4x replicas of the data set (the paper duplicates EP until the
    * cluster's memory is exceeded). Series are replicated with fresh tids so
    * the group structure scales with the data.
    */
  def queryScaling(spark: SparkSession, ds: TimeSeriesGen.Dataset, eps: Double,
                   factors: Seq[Int]): Seq[(Int, Double)] = {
    Udafs.register(spark)
    factors.map { k =>
      val dup = duplicate(spark, ds, k)
      val (name, clauses, g) = Stores.mdbVariants(ds.name, eps).head
      val (mdb, _) = Stores.buildMdb(spark, dup, name, clauses, g)
      val secs = BenchUtil.queryTime(segAggByTid(spark, mdb, None))
      (k, secs)
    }
  }

  /** Replicate a data set `k` times with shifted tids (and untouched values —
    * model counts scale linearly either way).
    */
  def duplicate(spark: SparkSession, ds: TimeSeriesGen.Dataset, k: Int): TimeSeriesGen.Dataset = {
    if (k <= 1) ds
    else {
      val maxTid = ds.series.map(_.tid).max
      val points = (0 until k).map { i =>
        ds.points.withColumn("tid", (col("tid") + lit(i * maxTid)).cast("int"))
      }.reduce(_ union _)
      val series = (0 until k).flatMap { i =>
        ds.series.map(s => s.copy(tid = s.tid + i * maxTid,
          dims = s.dims.map { case (d, ms) => d -> ms.updated(0, s"${ms(0)}_r$i") }))
      }
      val specs = (0 until k).flatMap { i =>
        ds.specs.map(s => s.copy(tid = s.tid + i * maxTid, cluster = s.cluster + i * 1000000))
      }
      ds.copy(points = points, series = series.toIndexedSeq, specs = specs.toIndexedSeq)
    }
  }
}
