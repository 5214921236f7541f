package repro.core.views

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestStore}
import repro.core.ModelarDB
import repro.core.golemm.GolemmConfig
import repro.core.grouping.Correlation
import repro.data.TimeSeriesGen

class DataPointViewSpec extends SparkSpec {

  private lazy val built = TestStore.build(
    spark,
    TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.01),
    clauses = Seq(Correlation.Auto()),
    golemm = GolemmConfig(epsilonPct = 0.0),
  )

  private def view = ModelarDB.dataPointView(spark, built.cfg, built.catalog)

  test("schema is (tid, ts, value, <dims>)") {
    val cols = view.columns.toSeq
    assert(cols.take(3) == Seq("tid", "ts", "value"))
    assert(cols.contains("production_entity") && cols.contains("measure_concrete"))
  }

  test("eps=0 reconstruction equals the raw points exactly") {
    val rec = view.select(col("tid"), col("ts"), col("value").cast("double").as("value"))
    Oracle.assertEquivalent(
      rec,
      "SELECT CAST(tid AS INT) AS tid, CAST(ts AS BIGINT) AS ts, CAST(value AS DOUBLE) AS value FROM pts",
      "pts" -> TestStore.rawDouble(built.dataset),
    )
  }

  test("point count matches (gaps stay gaps)") {
    assert(view.count() == built.dataset.pointCount)
  }

  test("arbitrary SQL: per-tid aggregates match DuckDB") {
    view.createOrReplaceTempView("dpv")
    val got = spark.sql(
      """SELECT tid, COUNT(*) AS n, SUM(CAST(value AS DOUBLE)) AS s,
        |       MIN(CAST(value AS DOUBLE)) AS mn, MAX(CAST(value AS DOUBLE)) AS mx
        |FROM dpv GROUP BY tid""".stripMargin)
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(tid AS INT) AS tid, COUNT(*) AS n, SUM(CAST(value AS DOUBLE)) AS s,
        |       MIN(CAST(value AS DOUBLE)) AS mn, MAX(CAST(value AS DOUBLE)) AS mx
        |FROM pts GROUP BY CAST(tid AS INT)""".stripMargin,
      "pts" -> TestStore.rawDouble(built.dataset),
    )
  }

  test("range predicate on ts matches DuckDB") {
    val ds  = built.dataset
    val si  = ds.series.head.si
    val hi  = 200L * si
    val dpv = ModelarDB.dataPointView(spark, built.cfg, built.catalog,
                                      timeRange = Some((0L, hi)))
      .select(col("tid"), col("ts"), col("value").cast("double").as("value"))
    Oracle.assertEquivalent(
      dpv,
      s"""SELECT CAST(tid AS INT) AS tid, CAST(ts AS BIGINT) AS ts,
         |       CAST(value AS DOUBLE) AS value
         |FROM pts WHERE CAST(ts AS BIGINT) <= $hi""".stripMargin,
      "pts" -> TestStore.rawDouble(ds),
    )
  }

  test("tid restriction scans only those series") {
    val two = ModelarDB.dataPointView(spark, built.cfg, built.catalog, tids = Some(Seq(1, 3)))
    assert(two.select("tid").distinct().collect().map(_.getInt(0)).sorted.toSeq == Seq(1, 3))
  }

  test("dimension columns carry the series metadata") {
    val r = view.filter(col("tid") === 1).select("production_entity", "measure_category").head()
    val meta = built.catalog.byTid(1)
    assert(r.getString(0) == meta.dims("Production")(1))
    assert(r.getString(1) == meta.dims("Measure")(0))
  }

  test("eps>0 reconstruction stays within the relative bound") {
    val eps = 5.0
    val b = TestStore.build(
      spark,
      TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.0, seed = 77),
      clauses = Seq(Correlation.Auto()),
      golemm = GolemmConfig(epsilonPct = eps),
    )
    val joined = ModelarDB.dataPointView(spark, b.cfg, b.catalog).as("r")
      .join(b.dataset.points.as("o"), Seq("tid", "ts"))
      .select(col("o.value").as("orig"), col("r.value").as("rec"))
    val bad = joined.filter(
      abs(col("orig") - col("rec")) > lit(eps / 100.0) * abs(col("orig")) + lit(1e-4)).count()
    assert(bad == 0L)
    assert(joined.count() == b.dataset.pointCount)
  }

  test("average error definition (paper Section VII-C) is small at eps=10") {
    val b = TestStore.build(
      spark,
      TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.0, seed = 78),
      clauses = Seq(Correlation.Auto()),
      golemm = GolemmConfig(epsilonPct = 10.0),
    )
    val joined = ModelarDB.dataPointView(spark, b.cfg, b.catalog)
      .join(b.dataset.points.withColumnRenamed("value", "orig"), Seq("tid", "ts"))
    val row = joined.select(
      (sum(abs(col("orig") - col("value"))) / sum(abs(col("orig"))) * 100).as("err")).head()
    assert(row.getDouble(0) < 10.0, s"avg error ${row.getDouble(0)}%")
  }

  test("points of +inf and -inf come back bit-exact, every other point exact or within eps") {
    val ds = TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.0, seed = 79)
    val si = ds.series.head.si.toLong
    // The first tick of tid 1's group, and later ticks of it and of another group.
    val infinite = Map((1, 0L) -> Float.PositiveInfinity, (2, 17 * si) -> Float.NegativeInfinity,
                       (1, 30 * si) -> Float.NegativeInfinity, (7, 40 * si) -> Float.PositiveInfinity)
    val points = ds.points.withColumn("value", infinite.foldLeft(col("value")) { case (v, ((tid, ts), x)) =>
      when(col("tid") === tid && col("ts") === ts, lit(x)).otherwise(v)
    })
    def byKey(df: org.apache.spark.sql.DataFrame) = {
      val rows = df.select("tid", "ts", "value").collect().map(r => (r.getInt(0), r.getLong(1)) -> r.getFloat(2))
      (rows.length, rows.toMap)
    }
    val (n, input) = byKey(points)
    assert(infinite.forall { case (k, x) => input(k) == x })
    Seq(0.0, 10.0).foreach { eps =>
      val b = TestStore.build(spark, ds.copy(points = points), Seq(Correlation.Auto()),
                              GolemmConfig(epsilonPct = eps))
      val (m, got) = byKey(ModelarDB.dataPointView(spark, b.cfg, b.catalog))
      assert(m == n && got.keySet == input.keySet, s"eps $eps")
      input.foreach { case (k, v) =>
        if (infinite.contains(k))
          assert(java.lang.Float.floatToRawIntBits(got(k)) == java.lang.Float.floatToRawIntBits(v),
                 s"eps $eps at $k: ${got(k)}")
        else if (eps == 0.0) assert(got(k) == v, s"at $k")
        else assert(math.abs(got(k).toDouble - v) <= eps / 100.0 * math.abs(v) + 1e-4, s"eps $eps at $k")
      }
    }
  }
}
