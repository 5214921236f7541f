package repro.core.views

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestStore}
import repro.core.ModelarDB
import repro.core.golemm.GolemmConfig
import repro.core.grouping.Correlation
import repro.data.TimeSeriesGen

class TimeCubeSpec extends SparkSpec {

  // SI=60s series: hours hold 60 ticks, months thousands.
  private lazy val built = TestStore.build(
    spark,
    TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.01),
    clauses = Seq(Correlation.Auto()),
    golemm = GolemmConfig(epsilonPct = 0.0),
  )

  test("interval boundary arithmetic") {
    assert(TimeCube.Hour.floor(3600000L) == 3600000L)
    assert(TimeCube.Hour.floor(3600001L) == 3600000L)
    assert(TimeCube.Hour.next(0L) == 3600000L)
    assert(TimeCube.Day.floor(86400000L + 5) == 86400000L)
    // 1970-01 -> 1970-02
    assert(TimeCube.Month.floor(100L) == 0L)
    assert(TimeCube.Month.next(0L) == 31L * 86400000L)
  }

  test("CUBE_SUM_HOUR per tid equals DuckDB bucketed sums (eps=0)") {
    val cube = ModelarDB.timeCube(spark, built.cfg, built.catalog, TimeCube.Hour, "sum")
    Oracle.assertEquivalent(
      cube,
      """SELECT CAST(tid AS INT) AS tid,
        |       (CAST(ts AS BIGINT) // 3600000) * 3600000 AS bucket,
        |       SUM(CAST(value AS DOUBLE)) AS value
        |FROM pts GROUP BY 1, 2""".stripMargin,
      "pts" -> TestStore.rawDouble(built.dataset),
    )
  }

  test("CUBE_COUNT_HOUR counts reconstructed points per bucket") {
    val cube = ModelarDB.timeCube(spark, built.cfg, built.catalog, TimeCube.Hour, "count")
    Oracle.assertEquivalent(
      cube,
      """SELECT CAST(tid AS INT) AS tid,
        |       (CAST(ts AS BIGINT) // 3600000) * 3600000 AS bucket,
        |       CAST(COUNT(*) AS DOUBLE) AS value
        |FROM pts GROUP BY 1, 2""".stripMargin,
      "pts" -> TestStore.rawDouble(built.dataset),
    )
  }

  test("CUBE_MIN/MAX_DAY equal DuckDB") {
    Seq("min" -> "MIN", "max" -> "MAX").foreach { case (agg, duck) =>
      val cube = ModelarDB.timeCube(spark, built.cfg, built.catalog, TimeCube.Day, agg)
      Oracle.assertEquivalent(
        cube,
        s"""SELECT CAST(tid AS INT) AS tid,
           |       (CAST(ts AS BIGINT) // 86400000) * 86400000 AS bucket,
           |       $duck(CAST(value AS DOUBLE)) AS value
           |FROM pts GROUP BY 1, 2""".stripMargin,
        "pts" -> TestStore.rawDouble(built.dataset),
      )
    }
  }

  test("CUBE_AVG_HOUR is sum/count per bucket") {
    val cube = ModelarDB.timeCube(spark, built.cfg, built.catalog, TimeCube.Hour, "avg")
    Oracle.assertEquivalent(
      cube,
      """SELECT CAST(tid AS INT) AS tid,
        |       (CAST(ts AS BIGINT) // 3600000) * 3600000 AS bucket,
        |       SUM(CAST(value AS DOUBLE)) / COUNT(*) AS value
        |FROM pts GROUP BY 1, 2""".stripMargin,
      "pts" -> TestStore.rawDouble(built.dataset),
    )
  }

  test("roll-up by dimension column instead of tid") {
    val sv   = ModelarDB.segmentView(spark, built.cfg, built.catalog)
    val cube = TimeCube.cube(sv, TimeCube.Hour, "sum", groupCols = Seq("measure_category"))
    val catDf = spark.createDataFrame(
      built.catalog.series.map(s => (s.tid, s.dims("Measure")(0)))).toDF("tid", "cat")
    Oracle.assertEquivalent(
      cube.withColumnRenamed("measure_category", "cat"),
      """SELECT d.cat AS cat,
        |       (CAST(p.ts AS BIGINT) // 3600000) * 3600000 AS bucket,
        |       SUM(CAST(p.value AS DOUBLE)) AS value
        |FROM pts p JOIN dims d ON CAST(p.tid AS INT) = CAST(d.tid AS INT)
        |GROUP BY 1, 2""".stripMargin,
      "pts"  -> TestStore.rawDouble(built.dataset),
      "dims" -> catDf,
    )
  }

  test("unknown aggregate rejected") {
    val sv = ModelarDB.segmentView(spark, built.cfg, built.catalog)
    intercept[IllegalArgumentException](TimeCube.cube(sv, TimeCube.Hour, "median"))
  }

  test("partials cover each segment's ticks exactly once") {
    val sv = ModelarDB.segmentView(spark, built.cfg, built.catalog)
    val p  = TimeCube.partials(sv, TimeCube.Hour)
    val totalFromPartials = p.agg(sum("cnt")).head().getLong(0)
    assert(totalFromPartials == built.dataset.pointCount)
  }
}
