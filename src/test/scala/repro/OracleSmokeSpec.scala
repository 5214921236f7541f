package repro

import org.apache.spark.sql.functions._
import repro.data.TimeSeriesGen

/** Sanity checks of the DuckDB oracle on generated time series — the oracle
  * must be trustworthy before every other suite leans on it.
  */
class OracleSmokeSpec extends SparkSpec {

  private lazy val ds = TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.01)

  /** One row per series: its tid and its Production type and Measure
    * category members.
    */
  private lazy val members = {
    import spark.implicits._
    ds.series.map(s => (s.tid, s.dims("Production")(0), s.dims("Measure")(0)))
      .toDF("tid", "production_type", "measure_category")
  }

  test("per-series aggregate matches DuckDB") {
    val got = ds.points.groupBy("tid")
      .agg(count(lit(1)).as("n"), sum(col("value").cast("double")).as("s"))
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(tid AS INT) AS tid, COUNT(*) AS n, SUM(CAST(value AS DOUBLE)) AS s
        |FROM pts GROUP BY CAST(tid AS INT)""".stripMargin,
      "pts" -> TestStore.rawDouble(ds),
    )
  }

  test("points joined to dimension members match DuckDB") {
    val got = ds.points.join(members, "tid")
      .groupBy("production_type", "measure_category")
      .agg(count(lit(1)).as("n"), sum(col("value").cast("double")).as("s"))
    Oracle.assertEquivalent(
      got,
      """SELECT m.production_type, m.measure_category, COUNT(*) AS n, SUM(CAST(p.value AS DOUBLE)) AS s
        |FROM pts p JOIN members m ON CAST(p.tid AS INT) = CAST(m.tid AS INT)
        |GROUP BY m.production_type, m.measure_category""".stripMargin,
      "pts"     -> TestStore.rawDouble(ds),
      "members" -> members,
    )
  }

  test("column mismatch is rejected") {
    import spark.implicits._
    val df = Seq((1, 2)).toDF("a", "b")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df, "SELECT a AS a, b AS wrong FROM t", "t" -> df)
    }
  }

  test("row mismatch is rejected") {
    import spark.implicits._
    val df = Seq((1, 2)).toDF("a", "b")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df, "SELECT a AS a, CAST(b AS INT) + 1 AS b FROM t", "t" -> df)
    }
  }
}
