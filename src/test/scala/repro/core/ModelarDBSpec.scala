package repro.core

import java.nio.file.{Files, Paths}
import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalatest.concurrent.Eventually
import org.scalatest.time.SpanSugar._
import repro.{Oracle, SparkSpec, TestStore}
import repro.bench.Stores
import repro.core.Types.SegmentRecord
import repro.core.golemm.GolemmConfig
import repro.core.grouping.{Correlation, GroupPartitioner, ScalingRule}
import repro.core.model.ModelType
import repro.core.storage.{SegmentCodec, SegmentSource}
import repro.data.TimeSeriesGen

/** End-to-end: setup (grouping/partitioning) → ingest → store → query views,
  * exercising the full paper pipeline on the three data set families.
  */
class ModelarDBSpec extends SparkSpec with Eventually {

  test("setup groups EP-like series into (entity, category) clusters via GB primitives") {
    val ds = TimeSeriesGen.epLike(spark, sf = 0.001)
    val cfg = ModelarDB.Config(storePath = Stores.tmpDir("s"))
    val setup = ModelarDB.setup(spark, cfg, ds.series, ds.dims,
      Seq(Correlation.And(Seq(
        Correlation.Lca("Production", 0),
        Correlation.Lca("Measure", 1)))))
    // clusters are exactly the generator's (entity, category) pairs
    val expect = ds.specs.groupBy(_.cluster).values.map(_.map(_.tid).toSet).toSet
    assert(setup.catalog.groups.map(_.tids.toSet).toSet == expect)
    assert(setup.groupingNanos > 0)
  }

  test("auto grouping discovers the same clusters on EP-like data") {
    val ds = TimeSeriesGen.epLike(spark, sf = 0.001)
    val cfg = ModelarDB.Config(storePath = Stores.tmpDir("s"))
    val setup = ModelarDB.setup(spark, cfg, ds.series, ds.dims, Seq(Correlation.Auto()))
    // auto distance (1/2)/2 = 0.25 merges series sharing entity AND category
    val expect = ds.specs.groupBy(_.cluster).values.map(_.map(_.tid).toSet).toSet
    assert(setup.catalog.groups.map(_.tids.toSet).toSet == expect)
  }

  test("every group is assigned to exactly one partition") {
    val ds = TimeSeriesGen.hdLike(spark, sf = 0.001)
    val cfg = ModelarDB.Config(storePath = Stores.tmpDir("s"), numPartitions = 4)
    val setup = ModelarDB.setup(spark, cfg, ds.series, ds.dims, Seq(Correlation.Auto()))
    assert(setup.numPartitions == 4)
    assert(setup.partitionOf.keySet == setup.catalog.groups.map(_.gid).toSet)
    assert(setup.partitionOf.values.forall(p => p >= 0 && p < 4))
  }

  test("the Spark partitioner sends each gid to its planned partition") {
    val ds    = TimeSeriesGen.epLike(spark, sf = 0.001)
    val cfg   = ModelarDB.Config(storePath = Stores.tmpDir("s"), numPartitions = 4)
    val setup = ModelarDB.setup(spark, cfg, ds.series, ds.dims, Seq(Correlation.Auto()))
    val p     = new GroupPartitioner(setup.partitionOf, setup.numPartitions)
    assert(p.numPartitions == setup.numPartitions)
    setup.catalog.groups.foreach(g => assert(p.getPartition(g.gid) == setup.partitionOf(g.gid)))
  }

  test("one ingest runs one Spark job") {
    val ds    = TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.0, seed = 98)
    val cfg   = ModelarDB.Config(storePath = Stores.tmpDir("jobs"), numPartitions = 4)
    val setup = ModelarDB.setup(spark, cfg, ds.series, ds.dims, Seq(Correlation.Auto()))
    // A cached input, as the benchmark's: the generator's own shuffle runs
    // in the count, not in the ingest.
    val points = ds.points.cache()
    points.count()
    val sc       = spark.sparkContext
    val groups   = new ConcurrentLinkedQueue[String] // the job group of each job started
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        groups.add(Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse(""))
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("ingest", "one ingest")
      ModelarDB.ingest(spark, cfg, setup, points)
      // The listener bus delivers events in order: once the marker job's
      // start arrives, so has every start of the ingest's jobs.
      sc.setJobGroup("marker", "after the ingest")
      sc.parallelize(Seq(1), 1).count()
      eventually(timeout(30.seconds))(assert(groups.contains("marker")))
      assert(groups.asScala.count(_ == "ingest") == 1)
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
      points.unpersist()
    }
  }

  test("ingest rejects a point with a null tid, ts or value and leaves the store empty") {
    val ds    = TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.0, seed = 98)
    val setup = ModelarDB.setup(spark, ModelarDB.Config(storePath = Stores.tmpDir("s"), numPartitions = 4),
                                ds.series, ds.dims, Seq(Correlation.Auto()))
    val first = ds.points.orderBy("tid", "ts").limit(1).collect().head
    val isFirst = col("tid") === first.getAs[Int]("tid") && col("ts") === first.getAs[Long]("ts")
    Seq("tid", "ts", "value").foreach { column =>
      val cfg = ModelarDB.Config(storePath = Stores.tmpDir("null"), numPartitions = 4)
      val e = intercept[org.apache.spark.SparkException](ModelarDB.ingest(spark, cfg, setup,
        ds.points.withColumn(column, when(isFirst, lit(null)).otherwise(col(column)))))
      assert(e.getMessage.contains(s"a point with a null $column cannot be ingested"), e.getMessage)
      assert(SegmentSource.listFiles(cfg.storePath).isEmpty)
      assert(!new java.io.File(cfg.storePath, "_staging").exists())
      assert(!new java.io.File(cfg.storePath, "catalog.json").exists())
    }
  }

  test("a failed second ingest keeps the first ingest's catalog and files") {
    val ds      = TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.0, seed = 98)
    val cfg     = ModelarDB.Config(storePath = Stores.tmpDir("second"), numPartitions = 4)
    val setup   = ModelarDB.setup(spark, cfg, ds.series, ds.dims, Seq(Correlation.Auto()))
    ModelarDB.ingest(spark, cfg, setup, ds.points)
    val catalog = Files.readAllBytes(Paths.get(cfg.storePath, "catalog.json"))
    val files   = SegmentSource.listFiles(cfg.storePath)
    val unknown = ds.series.map(_.tid).max + 1
    val e = intercept[org.apache.spark.SparkException](
      ModelarDB.ingest(spark, cfg, setup, ds.points.limit(1).withColumn("tid", lit(unknown))))
    assert(e.getMessage.contains(s"tid $unknown is not a series of this store"), e.getMessage)
    assert(Files.readAllBytes(Paths.get(cfg.storePath, "catalog.json")).sameElements(catalog))
    assert(SegmentSource.listFiles(cfg.storePath) == files)
    assert(!new java.io.File(cfg.storePath, "_staging").exists())
  }

  test("ingesting no points writes the catalog and no segment file") {
    val ds    = TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.0, seed = 98)
    val cfg   = ModelarDB.Config(storePath = Stores.tmpDir("empty"), numPartitions = 4)
    val setup = ModelarDB.setup(spark, cfg, ds.series, ds.dims, Seq(Correlation.Auto()))
    val stats = ModelarDB.ingest(spark, cfg, setup, ds.points.limit(0))
    assert(stats.points == 0L && stats.segments == 0L)
    assert(new java.io.File(cfg.storePath, "catalog.json").exists())
    assert(SegmentSource.listFiles(cfg.storePath).isEmpty)
    assert(!new java.io.File(cfg.storePath, "_staging").exists())
    assert(ModelarDB.segmentView(spark, cfg, setup.catalog).count() == 0L)
    assert(ModelarDB.dataPointView(spark, cfg, setup.catalog).count() == 0L)
  }

  test("ingest writes one file per non-empty planned partition, holding exactly its gids") {
    val ds    = TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.0, seed = 98)
    val cfg   = ModelarDB.Config(storePath = Stores.tmpDir("by-pid"), numPartitions = 4)
    val setup = ModelarDB.setup(spark, cfg, ds.series, ds.dims, Seq(Correlation.Auto()))
    assert(setup.catalog.groups.length >= 4)
    ModelarDB.ingest(spark, cfg, setup, ds.points)
    val fileGids = SegmentSource.listFiles(cfg.storePath).map { f =>
      SegmentCodec.decode(Files.readAllBytes(f.toPath)).map(_.gid).toSet
    }
    val planned = setup.partitionOf.groupBy(_._2).values.map(_.keySet).toSet
    assert(fileGids.length == planned.size)
    assert(fileGids.toSet == planned)
  }

  test("ingest rejects a duplicate (tid, ts) point and leaves the store empty") {
    val ds    = TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.0, seed = 98)
    val cfg   = ModelarDB.Config(storePath = Stores.tmpDir("dup"), numPartitions = 4)
    val setup = ModelarDB.setup(spark, cfg, ds.series, ds.dims, Seq(Correlation.Auto()))
    val dup   = ds.points.orderBy("tid", "ts").limit(1).collect().head
    val tid   = dup.getAs[Int]("tid")
    val e = intercept[org.apache.spark.SparkException](
      ModelarDB.ingest(spark, cfg, setup, ds.points.union(ds.points.filter(
        col("tid") === tid && col("ts") === dup.getAs[Long]("ts")))))
    assert(e.getMessage.contains(s"tid $tid at ts"), e.getMessage)
    assert(SegmentSource.listFiles(cfg.storePath).isEmpty)
    assert(!new java.io.File(cfg.storePath, "_staging").exists())
  }

  test("ingest rejects a point of a tid that is not in the catalog and leaves the store empty") {
    val ds      = TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.0, seed = 98)
    val cfg     = ModelarDB.Config(storePath = Stores.tmpDir("unknown"), numPartitions = 4)
    val setup   = ModelarDB.setup(spark, cfg, ds.series, ds.dims, Seq(Correlation.Auto()))
    val unknown = ds.series.map(_.tid).max + 1
    val e = intercept[org.apache.spark.SparkException](
      ModelarDB.ingest(spark, cfg, setup, ds.points.union(ds.points.limit(1).withColumn("tid", lit(unknown)))))
    assert(e.getMessage.contains(s"tid $unknown is not a series of this store"), e.getMessage)
    assert(SegmentSource.listFiles(cfg.storePath).isEmpty)
    assert(!new java.io.File(cfg.storePath, "_staging").exists())
  }

  test("ingest stores the same segments whatever the input order and partitioning") {
    val ds    = TimeSeriesGen.epLike(spark, sf = 0.002, gapProb = 0.01, seed = 99)
    val setup = ModelarDB.setup(spark, ModelarDB.Config(storePath = Stores.tmpDir("s")),
                                ds.series, ds.dims, Seq(Correlation.Auto()))
    def store(points: DataFrame): Seq[SegmentRecord] = {
      val cfg = ModelarDB.Config(storePath = Stores.tmpDir("order"),
                                 golemm = GolemmConfig(epsilonPct = 10.0))
      ModelarDB.ingest(spark, cfg, setup, points)
      IngestPinSpec.segments(cfg.storePath)
    }
    val generated = store(ds.points)
    assert(generated.nonEmpty)
    // Shuffled: no member's points arrive as one run in ts order.
    assert(store(ds.points.orderBy(rand(7))) == generated)
    // Hashed on ts: every group's points come from all 8 input partitions.
    assert(store(ds.points.repartition(8, col("ts"))) == generated)
    // The two copies of a duplicate point come from different map tasks, so
    // they arrive in different chunks.
    val dup = ds.points.orderBy("tid", "ts").limit(1).collect().head
    val (tid, ts) = (dup.getAs[Int]("tid"), dup.getAs[Long]("ts"))
    val e = intercept[org.apache.spark.SparkException](store(ds.points.repartition(8, col("ts")).union(
      ds.points.filter(col("tid") === tid && col("ts") === ts))))
    assert(e.getMessage.contains(s"duplicate point in group ${setup.catalog.gidOf(tid)}: tid $tid at ts $ts"),
           e.getMessage)
  }

  test("ingest stats add up and the store is written") {
    val ds = TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.01)
    val b  = TestStore.build(spark, ds, Seq(Correlation.Auto()))
    assert(b.stats.points == ds.pointCount)
    assert(b.stats.segments > 0)
    assert(b.stats.perMid.values.sum == b.stats.segments)
    assert(b.stats.storeBytes == SegmentSource.storeBytes(b.cfg.storePath))
    assert(b.stats.storeBytes > 0)
  }

  test("grouping reduces storage versus no grouping (the MMGC claim)") {
    val ds = TimeSeriesGen.epLike(spark, sf = 0.002, gapProb = 0.0, seed = 91)
    val grouped   = TestStore.build(spark, ds, Seq(Correlation.Auto()),
                                    GolemmConfig(epsilonPct = 1.0))
    val ungrouped = TestStore.build(spark, ds, Nil, GolemmConfig(epsilonPct = 1.0))
    assert(grouped.stats.storeBytes < ungrouped.stats.storeBytes,
           s"grouped=${grouped.stats.storeBytes} ungrouped=${ungrouped.stats.storeBytes}")
  }

  test("higher error bounds reduce storage") {
    val ds = TimeSeriesGen.efLike(spark, sf = 0.0005, gapProb = 0.0, seed = 92)
    val sizes = Seq(0.0, 1.0, 10.0).map { eps =>
      TestStore.build(spark, ds, Seq(Correlation.Auto()), GolemmConfig(epsilonPct = eps))
        .stats.storeBytes
    }
    assert(sizes(0) > sizes(2), s"eps=0 ${sizes(0)} should exceed eps=10 ${sizes(2)}")
  }

  test("model-based store is much smaller than the raw row format") {
    val ds = TimeSeriesGen.epLike(spark, sf = 0.002, gapProb = 0.0, seed = 93)
    val b  = TestStore.build(spark, ds, Seq(Correlation.Auto()), GolemmConfig(epsilonPct = 10.0))
    val rawBytes = ds.pointCount * 12 // 96-bit data points (paper Section I)
    assert(b.stats.storeBytes * 5 < rawBytes,
           s"store ${b.stats.storeBytes} vs raw $rawBytes")
  }

  test("all model types appear across regimes (paper Figures 17-19)") {
    val ds = TimeSeriesGen.epLike(spark, sf = 0.002, gapProb = 0.0, seed = 94)
    val b  = TestStore.build(spark, ds, Nil, GolemmConfig(epsilonPct = 0.0))
    val mids = b.stats.perMid.filter(_._2 > 0).keySet
    assert(mids.contains(1) && mids.contains(2) && mids.contains(3),
           s"expected PMC-Mean, Swing and Gorilla all used, got $mids")
  }

  test("grouping shifts model usage toward Gorilla and emits fewer segments") {
    val ds = TimeSeriesGen.epLike(spark, sf = 0.005, gapProb = 0.0, seed = 94)
    def run(clauses: Seq[Correlation]) =
      TestStore.build(spark, ds, clauses, GolemmConfig(epsilonPct = 0.0)).stats
    val grouped   = run(Seq(Correlation.Auto()))
    val ungrouped = run(Nil)
    def share(st: ModelarDB.IngestStats) = st.perMid.getOrElse(3, 0L).toDouble / st.segments
    assert(share(grouped) >= share(ungrouped), "groups need the lossless type at least as often")
    assert(grouped.segments < ungrouped.segments, "grouping must emit fewer segments")
  }

  test("MDB v1 baseline (PMC-MR, no groups) ingests and reconstructs within bound") {
    val eps = 10.0
    val ds = TimeSeriesGen.hdLike(spark, sf = 0.001, gapProb = 0.0, seed = 95)
    val cfg = ModelarDB.Config(storePath = Stores.tmpDir("mdbv1"),
      golemm = GolemmConfig(modelTypes = ModelType.mdbV1List, epsilonPct = eps,
                            dynamicSplitting = false))
    val setup = ModelarDB.setup(spark, cfg, ds.series, ds.dims, Nil)
    assert(setup.catalog.groups.forall(_.tids.length == 1)) // one group per series
    val stats = ModelarDB.ingest(spark, cfg, setup, ds.points)
    assert(stats.points == ds.pointCount)
    val joined = ModelarDB.dataPointView(spark, cfg, setup.catalog)
      .join(ds.points.withColumnRenamed("value", "orig"), Seq("tid", "ts"))
    val bad = joined.filter(
      abs(col("orig") - col("value")) > lit(eps / 100.0) * abs(col("orig")) + lit(1e-4)).count()
    assert(bad == 0L && joined.count() == ds.pointCount)
  }

  test("scaling rules resolved during setup") {
    val ds = TimeSeriesGen.epLike(spark, sf = 0.001)
    val cfg = ModelarDB.Config(storePath = Stores.tmpDir("s"))
    val setup = ModelarDB.setup(spark, cfg, ds.series, ds.dims, Nil,
      scalingRules = Seq(ScalingRule.ForMember("Measure", 1, "power", 4.0)))
    val powered = setup.catalog.series.filter(_.dims("Measure")(0) == "power")
    assert(powered.nonEmpty && powered.forall(_.scaling == 4.0))
    assert(setup.catalog.series.filterNot(_.dims("Measure")(0) == "power").forall(_.scaling == 1.0))
  }

  test("multi-batch ingest (streaming-style micro-batches) appends consistently") {
    val ds  = TimeSeriesGen.hdLike(spark, sf = 0.001, gapProb = 0.0, seed = 96)
    val cfg = ModelarDB.Config(storePath = Stores.tmpDir("stream"),
                               golemm = GolemmConfig(epsilonPct = 0.0))
    val setup = ModelarDB.setup(spark, cfg, ds.series, ds.dims, Seq(Correlation.Auto()))
    val si  = ds.series.head.si
    val cut = 60L * si
    val s1 = ModelarDB.ingest(spark, cfg, setup, ds.points.filter(col("ts") < cut))
    val s2 = ModelarDB.ingest(spark, cfg, setup, ds.points.filter(col("ts") >= cut))
    assert(s1.points + s2.points == ds.pointCount)
    val rec = ModelarDB.dataPointView(spark, cfg, setup.catalog)
      .select(col("tid"), col("ts"), col("value").cast("double").as("value"))
    Oracle.assertEquivalent(
      rec,
      "SELECT CAST(tid AS INT) AS tid, CAST(ts AS BIGINT) AS ts, CAST(value AS DOUBLE) AS value FROM pts",
      "pts" -> TestStore.rawDouble(ds),
    )
  }

  test("full pipeline on EF-like data matches DuckDB at eps=0") {
    val ds = TimeSeriesGen.efLike(spark, sf = 0.0002, gapProb = 0.02, seed = 97)
    val b  = TestStore.build(spark, ds, Seq(Correlation.Auto()))
    ModelarDB.registerViews(spark, b.cfg, b.catalog)
    val got = spark.sql(
      """SELECT tid, COUNT(*) AS n, SUM(CAST(value AS DOUBLE)) AS s
        |FROM datapoint_view GROUP BY tid""".stripMargin)
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(tid AS INT) AS tid, COUNT(*) AS n, SUM(CAST(value AS DOUBLE)) AS s
        |FROM pts GROUP BY CAST(tid AS INT)""".stripMargin,
      "pts" -> TestStore.rawDouble(ds),
    )
  }

  test("dimension member predicate rewrite scans the right gids") {
    val ds = TimeSeriesGen.epLike(spark, sf = 0.001)
    val b  = TestStore.build(spark, ds, Seq(Correlation.Auto()))
    val gids = b.catalog.gidsForTids(b.catalog.tidsForMember("Measure", 1, "power"))
    assert(gids.nonEmpty && gids.size < b.catalog.groups.length)
    val powerTids = b.catalog.series.filter(_.dims("Measure")(0) == "power").map(_.tid).toSet
    assert(gids == b.catalog.groups.filter(_.tids.exists(powerTids)).map(_.gid).toSet)
  }
}
