package repro.core.views

import org.apache.spark.SparkException
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.datasources.v2.BatchScanExec
import repro.{Oracle, SparkSpec, TestStore}
import repro.core.{Catalog, ModelarDB}
import repro.core.Types.SegmentRecord
import repro.core.golemm.GolemmConfig
import repro.core.grouping.Correlation
import repro.core.storage.SegmentSource
import repro.data.TimeSeriesGen

/** Tid and dimension predicates in plain SQL on `segment_view` reach the
  * segment store as Gid sets (paper Section VI-B): the answer is unchanged,
  * EXPLAIN shows the pushed Gids and the scan returns only their groups'
  * member rows. `ts` predicates on `datapoint_view` reach it as the time
  * bounds of the segments that overlap them.
  */
class SegmentViewPushDownSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private lazy val built = TestStore.build(
    spark,
    TimeSeriesGen.epLike(spark, sf = 0.001, gapProb = 0.01),
    clauses = Seq(Correlation.Auto()),
    golemm = GolemmConfig(epsilonPct = 0.0),
  )

  private val a = Udafs.SegArgsSql

  private lazy val stored = TestStore.segments(built.cfg.storePath)

  /** Members of a stored segment that its Gaps bitmask marks present. */
  private def present(s: SegmentRecord): Long =
    built.catalog.membersOf(s.gid).indices.count(i => (s.gaps & (1L << i)) == 0).toLong

  /** Member rows of the store's segments of `gids`, counted from the
    * decoded files: one per member the Gaps bitmask marks present.
    */
  private def memberRows(gids: Set[Int]): Long =
    stored.filter(s => gids.contains(s.gid)).map(present).sum

  /** Points of the store's segments that overlap `[lo, hi]`, counted from
    * the decoded files: present members times length.
    */
  private def pointsOverlapping(lo: Long, hi: Long): Long =
    stored.filter(s => s.endTime >= lo && s.startTime <= hi).map(s => present(s) * s.length).sum

  /** Run `df` and return the rows its segment scan produced. */
  private def scannedRows(df: DataFrame): Long = {
    df.collect()
    val scans = collect(df.queryExecution.executedPlan) { case s: BatchScanExec => s }
    assert(scans.length == 1)
    scans.head.metrics("numOutputRows").value
  }

  private def explain(sql: String): String =
    spark.sql(s"EXPLAIN $sql").head().getString(0)

  private def gidsShown(gids: Set[Int]): String =
    gids.toSeq.sorted.mkString("SegmentScan(gids={", ", ", "})")

  test("WHERE on tid pushes exactly the Gids of the selected series") {
    ModelarDB.registerViews(spark, built.cfg, built.catalog)
    val cat = built.catalog
    val t   = 3
    val cases = Seq(
      s"tid = $t"        -> Seq(t),
      "tid IN (2, 7)"    -> Seq(2, 7),
      "tid <= 4"         -> cat.series.map(_.tid).filter(_ <= 4),
      "tid > 9"          -> cat.series.map(_.tid).filter(_ > 9),
    )
    assert(cat.gidsForTids(Seq(t)) == Set(cat.gidOf(t)))
    // The Data Point View's tid filter passes below the reconstruction too.
    assert(explain(s"SELECT * FROM datapoint_view WHERE tid = $t")
             .contains(gidsShown(Set(cat.gidOf(t)))))
    cases.foreach { case (where, tids) =>
      val gids = cat.gidsForTids(tids)
      assert(gids.nonEmpty && gids.size < cat.groups.length, where)
      val sql =
        s"SELECT tid, SUM_S($a) AS s, COUNT_S($a) AS n FROM segment_view WHERE $where GROUP BY tid"
      assert(explain(sql).contains(gidsShown(gids)), where)
      val got = spark.sql(sql)
      Oracle.assertEquivalent(
        got,
        s"""SELECT CAST(tid AS INT) AS tid, SUM(CAST(value AS DOUBLE)) AS s, COUNT(*) AS n
           |FROM pts WHERE CAST(tid AS INT) IN (${tids.mkString(", ")})
           |GROUP BY CAST(tid AS INT)""".stripMargin,
        "pts" -> TestStore.rawDouble(built.dataset),
      )
      assert(scannedRows(got) == memberRows(gids), where)
    }
  }

  test("WHERE on a dimension column pushes exactly the Gids of the member's groups") {
    ModelarDB.registerViews(spark, built.cfg, built.catalog)
    val cat  = built.catalog
    val gids = cat.gidsForTids(cat.tidsForMember("Measure", 1, "power"))
    assert(gids.nonEmpty && gids.size < cat.groups.length)
    val sql =
      s"SELECT SUM_S($a) AS s, COUNT_S($a) AS n FROM segment_view WHERE measure_category = 'power'"
    assert(explain(sql).contains(gidsShown(gids)))
    val got = spark.sql(sql)
    Oracle.assertEquivalent(
      got,
      s"""SELECT SUM(CAST(value AS DOUBLE)) AS s, COUNT(*) AS n FROM pts
         |WHERE CAST(tid AS INT) IN (${cat.tidsForMember("Measure", 1, "power").mkString(", ")})""".stripMargin,
      "pts" -> TestStore.rawDouble(built.dataset),
    )
    assert(scannedRows(got) == memberRows(gids))
    val in = s"SELECT COUNT_S($a) AS n FROM segment_view WHERE measure_category IN ('power', 'nowhere')"
    assert(explain(in).contains(gidsShown(gids)))
  }

  test("a gid range is not pushed: the scan reads every group and the answer is unchanged") {
    ModelarDB.registerViews(spark, built.cfg, built.catalog)
    val cat  = built.catalog
    val gids = cat.groups.map(_.gid).sorted
    val k    = gids(gids.length / 2)
    assert(gids.head < k)
    val sql  = s"SELECT tid, COUNT_S($a) AS n FROM segment_view WHERE gid >= $k GROUP BY tid"
    val plan = explain(sql)
    assert(!plan.contains("gid=["), plan)
    val got  = spark.sql(sql)
    val tids = cat.groups.filter(_.gid >= k).flatMap(_.tids)
    Oracle.assertEquivalent(
      got,
      s"""SELECT CAST(tid AS INT) AS tid, COUNT(*) AS n FROM pts
         |WHERE CAST(tid AS INT) IN (${tids.mkString(", ")})
         |GROUP BY CAST(tid AS INT)""".stripMargin,
      "pts" -> TestStore.rawDouble(built.dataset),
    )
    assert(scannedRows(got) == memberRows(gids.toSet))
  }

  test("an unknown tid or dimension member selects nothing and reads no segment") {
    ModelarDB.registerViews(spark, built.cfg, built.catalog)
    assert(ModelarDB.segmentView(spark, built.cfg, built.catalog, tids = Some(Seq(999))).count() == 0)
    assert(ModelarDB.dataPointView(spark, built.cfg, built.catalog, tids = Some(Seq(999))).count() == 0)
    Seq("tid = 999", "measure_category = 'nowhere'").foreach { where =>
      val sql = s"SELECT * FROM segment_view WHERE $where"
      assert(explain(sql).contains(gidsShown(Set.empty)), where)
      assert(scannedRows(spark.sql(sql)) == 0, where)
      assert(spark.sql(sql).count() == 0, where)
    }
    Seq(("Measure", 1, "nowhere"), ("Nowhere", 1, "power"), ("Measure", 9, "power")).foreach {
      case (dim, level, member) =>
        assert(ModelarDB.segmentView(spark, built.cfg, built.catalog,
                 tids = Some(built.catalog.tidsForMember(dim, level, member))).count() == 0,
               s"$dim $level $member")
    }
  }

  test("a ts range or point on datapoint_view reads only the segments that overlap it") {
    ModelarDB.registerViews(spark, built.cfg, built.catalog)
    val first = stored.map(_.startTime).min
    val last  = stored.map(_.endTime).max
    val third = (last - first) / 3
    val all   = scannedRows(spark.sql("SELECT * FROM datapoint_view"))
    Seq((first + third, first + 2 * third), (first + third, first + third)).foreach { case (lo, hi) =>
      val where = if (lo == hi) s"ts = $lo" else s"ts BETWEEN $lo AND $hi"
      val sql   = s"SELECT tid, ts, CAST(value AS DOUBLE) AS value FROM datapoint_view WHERE $where"
      val plan  = explain(sql)
      assert(plan.contains(s"end_time=[$lo, inf]") && plan.contains(s"start_time=[-inf, $hi]"), plan)
      assert(!plan.contains("Generate") && !plan.contains("UDF"), plan)
      val got      = spark.sql(sql)
      val expected = pointsOverlapping(lo, hi)
      assert(scannedRows(got) == expected, where)
      assert(expected > 0 && expected < all, s"$where: $expected of $all")
      Oracle.assertEquivalent(
        got,
        s"""SELECT CAST(tid AS INT) AS tid, CAST(ts AS BIGINT) AS ts, CAST(value AS DOUBLE) AS value
           |FROM pts WHERE CAST(ts AS BIGINT) BETWEEN $lo AND $hi""".stripMargin,
        "pts" -> TestStore.rawDouble(built.dataset),
      )
    }
  }

  test("a segment whose gid is not in the catalog fails the scan, naming its file and gid") {
    val cat  = built.catalog
    val gone = cat.groups.head
    val partial = Catalog(cat.series.filterNot(s => gone.tids.contains(s.tid)),
                          cat.groups.tail, cat.dims)
    SegmentSource.writeCatalog(built.cfg.storePath, partial)
    try {
      val e = intercept[SparkException](
        ModelarDB.segmentView(spark, built.cfg, partial).count())
      assert(e.getMessage.contains(s"holds gid ${gone.gid}, which is not a group of the catalog"),
             e.getMessage)
      assert(SegmentSource.listFiles(built.cfg.storePath)
               .exists(f => e.getMessage.contains(f.getAbsolutePath)), e.getMessage)
      // Groups the catalog knows are still readable.
      val kept = cat.groups(1).tids.head
      assert(ModelarDB.segmentView(spark, built.cfg, partial, tids = Some(Seq(kept))).count() > 0)
    } finally SegmentSource.writeCatalog(built.cfg.storePath, cat)
  }
}
