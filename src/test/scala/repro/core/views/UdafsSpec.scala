package repro.core.views

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestStore}
import repro.core.ModelarDB
import repro.core.golemm.GolemmConfig
import repro.core.grouping.Correlation
import repro.data.TimeSeriesGen

class UdafsSpec extends SparkSpec {

  private lazy val built = TestStore.build(
    spark,
    TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.01),
    clauses = Seq(Correlation.Auto()),
    golemm = GolemmConfig(epsilonPct = 0.0),
  )

  private def registered(): Unit = ModelarDB.registerViews(spark, built.cfg, built.catalog)

  test("segment view exposes the model columns and dims") {
    registered()
    val cols = spark.table("segment_view").columns.toSeq
    Seq("tid", "start_time", "end_time", "si", "mid", "params",
        "production_entity", "measure_concrete").foreach(c => assert(cols.contains(c), c))
  }

  test("COUNT_S / SUM_S / MIN_S / MAX_S per tid equal DuckDB on raw points (eps=0)") {
    registered()
    val got = spark.sql(
      s"""SELECT tid, COUNT_S(${Udafs.SegArgsSql}) AS n, SUM_S(${Udafs.SegArgsSql}) AS s, MIN_S(${Udafs.SegArgsSql}) AS mn, MAX_S(${Udafs.SegArgsSql}) AS mx
        |FROM segment_view GROUP BY tid""".stripMargin)
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(tid AS INT) AS tid, COUNT(*) AS n, SUM(CAST(value AS DOUBLE)) AS s,
        |       MIN(CAST(value AS DOUBLE)) AS mn, MAX(CAST(value AS DOUBLE)) AS mx
        |FROM pts GROUP BY CAST(tid AS INT)""".stripMargin,
      "pts" -> TestStore.rawDouble(built.dataset),
    )
  }

  test("AVG_S equals SUM/COUNT") {
    registered()
    val rows = spark.sql(
      s"""SELECT tid, AVG_S(${Udafs.SegArgsSql}) AS a, SUM_S(${Udafs.SegArgsSql}) / COUNT_S(${Udafs.SegArgsSql}) AS b
        |FROM segment_view GROUP BY tid""".stripMargin).collect()
    rows.foreach(r => assert(math.abs(r.getDouble(1) - r.getDouble(2)) < 1e-9))
  }

  test("on an empty selection COUNT_S is 0, SUM_S 0.0 and MIN_S, MAX_S, AVG_S NaN") {
    registered()
    val a = Udafs.SegArgsSql
    val r = spark.sql(
      s"SELECT COUNT_S($a), SUM_S($a), MIN_S($a), MAX_S($a), AVG_S($a) FROM segment_view WHERE tid = -1")
      .head()
    assert(r.getLong(0) == 0L && r.getDouble(1) == 0.0, r)
    assert((2 to 4).forall(i => r.getDouble(i).isNaN), r)
  }

  test("global aggregate over all series matches DuckDB") {
    registered()
    val got = spark.sql(s"SELECT SUM_S(${Udafs.SegArgsSql}) AS s, COUNT_S(${Udafs.SegArgsSql}) AS n FROM segment_view")
    Oracle.assertEquivalent(
      got,
      "SELECT SUM(CAST(value AS DOUBLE)) AS s, COUNT(*) AS n FROM pts",
      "pts" -> TestStore.rawDouble(built.dataset),
    )
  }

  test("GROUP BY dimension column reduces multi-dimensional aggregation to simple UDAFs") {
    registered()
    val got = spark.sql(
      s"""SELECT measure_category AS cat, SUM_S(${Udafs.SegArgsSql}) AS s, COUNT_S(${Udafs.SegArgsSql}) AS n
        |FROM segment_view GROUP BY measure_category""".stripMargin)
    // reference: join raw points with the per-tid category assignment
    val cat = built.catalog
    val catDf = spark.createDataFrame(
      cat.series.map(s => (s.tid, s.dims("Measure")(0))))
      .toDF("tid", "cat")
    Oracle.assertEquivalent(
      got,
      """SELECT d.cat AS cat, SUM(CAST(p.value AS DOUBLE)) AS s, COUNT(*) AS n
        |FROM pts p JOIN dims d ON CAST(p.tid AS INT) = CAST(d.tid AS INT)
        |GROUP BY d.cat""".stripMargin,
      "pts"  -> TestStore.rawDouble(built.dataset),
      "dims" -> catDf,
    )
  }

  test("WHERE on tid works through the Tid->Gid rewrite path") {
    val sv = ModelarDB.segmentView(spark, built.cfg, built.catalog, tids = Some(Seq(2)))
    Udafs.register(spark)
    sv.createOrReplaceTempView("sv_t2")
    val got = spark.sql(s"SELECT COUNT_S(${Udafs.SegArgsSql}) AS n FROM sv_t2")
    Oracle.assertEquivalent(
      got,
      "SELECT COUNT(*) AS n FROM pts WHERE CAST(tid AS INT) = 2",
      "pts" -> TestStore.rawDouble(built.dataset),
    )
  }

  test("scaling constants are applied by the UDAFs") {
    // series 2 of each pair scaled by 2 relative to the model
    val ds = TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.0, seed = 55)
    val series = ds.series.map(s => if (s.tid % 2 == 0) s.copy(scaling = 2.0) else s)
    val scaledPoints = ds.points.withColumn("value",
      when(col("tid") % 2 === 0, col("value") * 2.0f).otherwise(col("value")))
    val ds2 = ds.copy(points = scaledPoints, series = series)
    val b = TestStore.build(spark, ds2, Seq(Correlation.Auto()), GolemmConfig(epsilonPct = 0.0))
    ModelarDB.registerViews(spark, b.cfg, b.catalog)
    val got = spark.sql(
      s"SELECT tid, SUM_S(${Udafs.SegArgsSql}) AS s FROM segment_view WHERE tid <= 4 GROUP BY tid")
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(tid AS INT) AS tid, SUM(CAST(value AS DOUBLE)) AS s
        |FROM pts WHERE CAST(tid AS INT) <= 4 GROUP BY CAST(tid AS INT)""".stripMargin,
      "pts" -> TestStore.rawDouble(ds2),
    )
  }

  test("UDAF results with eps>0 stay within the bound for MIN/MAX") {
    val eps = 10.0
    val b = TestStore.build(
      spark, TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.0, seed = 66),
      Seq(Correlation.Auto()), GolemmConfig(epsilonPct = eps))
    ModelarDB.registerViews(spark, b.cfg, b.catalog)
    val got = spark.sql(
      s"SELECT tid, MIN_S(${Udafs.SegArgsSql}) AS mn, MAX_S(${Udafs.SegArgsSql}) AS mx FROM segment_view GROUP BY tid")
      .collect().map(r => (r.getInt(0), (r.getDouble(1), r.getDouble(2)))).toMap
    val exact = TestStore.rawDouble(b.dataset).groupBy("tid")
      .agg(min("value").as("mn"), max("value").as("mx")).collect()
      .map(r => (r.getInt(0), (r.getDouble(1), r.getDouble(2)))).toMap
    exact.foreach { case (tid, (mn, mx)) =>
      val (gmn, gmx) = got(tid)
      assert(math.abs(gmn - mn) <= eps / 100 * math.abs(mn) + 1e-3, s"min tid $tid")
      assert(math.abs(gmx - mx) <= eps / 100 * math.abs(mx) + 1e-3, s"max tid $tid")
    }
  }
}
