package repro.core.views

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestStore}
import repro.bench.Stores
import repro.core.ModelarDB
import repro.core.golemm.GolemmConfig
import repro.data.TimeSeriesGen

/** The shared segment kernel of `*_S` and `CUBE_*`, and the Data Point
  * View, which decodes in the store's reader, where they can go wrong: groups
  * whose segments serve many member rows, and segments of two stores that
  * agree on `(gid, start_time)` but not on their models.
  */
class SegmentEvalSpec extends SparkSpec {

  /** EF-like (park, concrete) groups of 8 turbines at ε = 0. */
  private val efClauses = Stores.mdbVariants("EF", 0.0).head._2

  private def sAggs(view: DataFrame, keys: String*): DataFrame = {
    Udafs.register(spark)
    val a = Udafs.SegArgsSql
    view.groupBy(keys.map(col): _*).agg(
      expr(s"COUNT_S($a)").as("n"), expr(s"SUM_S($a)").as("s"),
      expr(s"MIN_S($a)").as("mn"), expr(s"MAX_S($a)").as("mx"))
  }

  test("wide groups with gaps: *_S, CUBE_SUM_HOUR and the Data Point View equal DuckDB (eps=0)") {
    val gen = TimeSeriesGen.efLike(spark, sf = 0.001, gapProb = 0.01, gapLenMax = 20, seed = 61)
    // Start 25 s before an hour boundary, so some segments span two buckets.
    val ds = gen.copy(points = gen.points.withColumn("ts", col("ts") + lit(3600000L - 25000L)))
    val b  = TestStore.build(spark, ds, efClauses, GolemmConfig(epsilonPct = 0.0))
    assert(b.catalog.groups.forall(_.tids.length == 8))
    val sv  = ModelarDB.segmentView(spark, b.cfg, b.catalog)
    assert(sv.filter(col("nseries") < 8).count() > 0, "sanity: some segments have gaps")
    val raw = "pts" -> TestStore.rawDouble(ds)

    Oracle.assertEquivalent(
      sAggs(sv, "tid"),
      """SELECT CAST(tid AS INT) AS tid, COUNT(*) AS n, SUM(CAST(value AS DOUBLE)) AS s,
        |       MIN(CAST(value AS DOUBLE)) AS mn, MAX(CAST(value AS DOUBLE)) AS mx
        |FROM pts GROUP BY CAST(tid AS INT)""".stripMargin, raw)
    Oracle.assertEquivalent(
      TimeCube.cube(sv, TimeCube.Hour, "sum"),
      """SELECT CAST(tid AS INT) AS tid,
        |       (CAST(ts AS BIGINT) // 3600000) * 3600000 AS bucket,
        |       SUM(CAST(value AS DOUBLE)) AS value
        |FROM pts GROUP BY 1, 2""".stripMargin, raw)
    Oracle.assertEquivalent(
      ModelarDB.dataPointView(spark, b.cfg, b.catalog)
        .select(col("tid"), col("ts"), col("value").cast("double").as("value")),
      "SELECT CAST(tid AS INT) AS tid, CAST(ts AS BIGINT) AS ts, CAST(value AS DOUBLE) AS value FROM pts",
      raw)
  }

  test("segments before the epoch: *_S and CUBE_SUM_HOUR equal DuckDB (eps=0)") {
    val gen = TimeSeriesGen.efLike(spark, sf = 0.001, gapProb = 0.01, gapLenMax = 20, seed = 63)
    // Every timestamp negative; the last 25 s fall in a later hour than the rest.
    val ds = gen.copy(points = gen.points.withColumn("ts", col("ts") - lit(3600000L + 25000L)))
    val b  = TestStore.build(spark, ds, efClauses, GolemmConfig(epsilonPct = 0.0))
    val sv = ModelarDB.segmentView(spark, b.cfg, b.catalog)
    assert(sv.agg(max("end_time")).head().getLong(0) < 0, "sanity: every segment ends before the epoch")
    val raw = "pts" -> TestStore.rawDouble(ds)

    Oracle.assertEquivalent(
      sAggs(sv, "tid"),
      """SELECT CAST(tid AS INT) AS tid, COUNT(*) AS n, SUM(CAST(value AS DOUBLE)) AS s,
        |       MIN(CAST(value AS DOUBLE)) AS mn, MAX(CAST(value AS DOUBLE)) AS mx
        |FROM pts GROUP BY CAST(tid AS INT)""".stripMargin, raw)
    // DuckDB's % keeps the dividend's sign, so the bucket is ts minus its floor modulus.
    Oracle.assertEquivalent(
      TimeCube.cube(sv, TimeCube.Hour, "sum"),
      """SELECT CAST(tid AS INT) AS tid,
        |       CAST(ts AS BIGINT) - ((CAST(ts AS BIGINT) % 3600000) + 3600000) % 3600000 AS bucket,
        |       SUM(CAST(value AS DOUBLE)) AS value
        |FROM pts GROUP BY 1, 2""".stripMargin, raw)
  }

  test("two stores sharing (gid, start_time), read interleaved in one task, keep their own answers") {
    val ds1 = TimeSeriesGen.efLike(spark, sf = 0.0005, gapProb = 0.01, gapLenMax = 20, seed = 62)
    // Same series, groups and timestamps; doubled values fit the same segments.
    val ds2 = ds1.copy(points = ds1.points.withColumn("value", col("value") * 2.0f))
    val b1  = TestStore.build(spark, ds1, efClauses, GolemmConfig(epsilonPct = 0.0))
    val b2  = TestStore.build(spark, ds2, efClauses, GolemmConfig(epsilonPct = 0.0))
    def tagged(b: TestStore.Built, store: Int) =
      ModelarDB.segmentView(spark, b.cfg, b.catalog).withColumn("store", lit(store))

    // One partition, sorted so that the two stores' rows of a (gid,
    // start_time, tid) follow each other.
    val both = tagged(b1, 1).unionByName(tagged(b2, 2))
      .repartition(1).sortWithinPartitions("gid", "start_time", "tid", "store")
    val shared = both.groupBy("gid", "start_time", "tid")
      .agg(countDistinct("params").as("models")).filter(col("models") === 2).count()
    assert(shared > 0, "sanity: the stores share segment keys with different models")

    val raw = "pts" -> TestStore.rawDouble(ds1).withColumn("store", lit(1))
      .unionByName(TestStore.rawDouble(ds2).withColumn("store", lit(2)))
    Oracle.assertEquivalent(
      sAggs(both, "store", "tid"),
      """SELECT CAST(store AS INT) AS store, CAST(tid AS INT) AS tid, COUNT(*) AS n,
        |       SUM(CAST(value AS DOUBLE)) AS s, MIN(CAST(value AS DOUBLE)) AS mn,
        |       MAX(CAST(value AS DOUBLE)) AS mx
        |FROM pts GROUP BY 1, 2""".stripMargin, raw)
    Oracle.assertEquivalent(
      TimeCube.cube(both, TimeCube.Hour, "sum", Seq("store", "tid")),
      """SELECT CAST(store AS INT) AS store, CAST(tid AS INT) AS tid,
        |       (CAST(ts AS BIGINT) // 3600000) * 3600000 AS bucket,
        |       SUM(CAST(value AS DOUBLE)) AS value
        |FROM pts GROUP BY 1, 2, 3""".stripMargin, raw)
    val dpvs = ModelarDB.dataPointView(spark, b1.cfg, b1.catalog).withColumn("store", lit(1))
      .unionByName(ModelarDB.dataPointView(spark, b2.cfg, b2.catalog).withColumn("store", lit(2)))
    Oracle.assertEquivalent(
      dpvs.select(col("store"), col("tid"), col("ts"), col("value").cast("double").as("value")),
      """SELECT CAST(store AS INT) AS store, CAST(tid AS INT) AS tid, CAST(ts AS BIGINT) AS ts,
        |       CAST(value AS DOUBLE) AS value FROM pts""".stripMargin, raw)
  }
}
