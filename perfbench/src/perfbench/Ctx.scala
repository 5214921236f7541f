package perfbench

import java.io.File
import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.expressions.{And, Expression}
import org.apache.spark.sql.execution.{FilterExec, GenerateExec, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.datasources.v2.BatchScanExec
import org.apache.spark.sql.perfbench.SparkInternals

import repro.core.ModelarDB
import repro.core.Types.TimeSeriesMeta
import repro.core.grouping.{Correlation, DimensionSpec, Partitioner}
import repro.core.storage.{SegmentCodec, SegmentSource}

/** What the traced run learns from one call into `ModelarDB.setup`. */
final case class GroupingSample(seconds: Double, groups: Int, avgGroupSize: Double,
                                plannedLoadMaxOverMean: Double)

/** What the traced run learns from one call into `ModelarDB.ingest`. */
final case class IngestSample(
    seconds: Double, taskRunS: Double, taskCpuS: Double, gcS: Double,
    busyTaskFrac: Double, taskRunMaxOverMean: Double,
    shuffleWriteBytes: Double,
    compressShare: Double, splitMergeShare: Double)

/** What the traced run learns from one query through the views. */
final case class QuerySample(
    planS: Double, execS: Double, scanSegments: Double, explodedRows: Double,
    jobs: Double, stages: Double, tasks: Double, taskRunS: Double, taskCpuS: Double,
    gcS: Double, taskRunMaxOverMean: Double, shuffleBytes: Double, filesMatchedFrac: Double)

/** The benchmark's handle on Spark, the tracer and its scratch space. Every
  * call into the program's Spark layers goes through here, so that the traced
  * run records a span and the layer counts around each call, and the untraced
  * run just makes the call.
  */
final class Ctx(val spark: SparkSession, val tracer: Tracer, val work: File) {

  val probe: Option[SparkProbe] =
    if (tracer.enabled) {
      val p = new SparkProbe(spark.sparkContext, tracer)
      spark.sparkContext.addSparkListener(p)
      Some(p)
    } else None

  val groupingSamples = mutable.ArrayBuffer.empty[GroupingSample]
  val ingestSamples   = mutable.ArrayBuffer.empty[IngestSample]
  val querySamples    = mutable.ArrayBuffer.empty[QuerySample]

  private var dirs = 0

  /** A new, empty directory under the run's scratch space. */
  def freshDir(prefix: String): String = {
    dirs += 1
    val d = new File(work, s"$prefix-$dirs")
    Ctx.delete(d)
    d.mkdirs()
    d.getAbsolutePath
  }

  /** Run `body` in a span whose Spark jobs are tagged with that span's id. */
  private def sparkSpan[A](name: String)(body: => A): (A, Option[SparkProbe.Acc]) =
    if (!tracer.active) (body, None)
    else {
      var group = ""
      val r = tracer.span(name) {
        group = tracer.current.toString
        spark.sparkContext.setJobGroup(group, name, interruptOnCancel = false)
        try body finally spark.sparkContext.clearJobGroup()
      }
      (r, probe.map(_.take(group)))
    }

  def setup(cfg: ModelarDB.Config, series: Seq[TimeSeriesMeta], dims: Seq[DimensionSpec],
            clauses: Seq[Correlation]): ModelarDB.Setup = {
    val t0 = System.nanoTime()
    val s  = tracer.span("grouping.setup")(ModelarDB.setup(spark, cfg, series, dims, clauses))
    if (tracer.active) {
      val groups = s.catalog.groups
      val loads  = Array.fill(s.numPartitions)(0.0)
      groups.foreach { g =>
        loads(s.partitionOf(g.gid)) += Partitioner.pointsPerMinute(g, t => s.catalog.byTid(t).si)
      }
      groupingSamples += GroupingSample((System.nanoTime() - t0) / 1e9, groups.length,
        groups.map(_.tids.length).sum.toDouble / groups.length, loads.max / (loads.sum / loads.length))
    }
    s
  }

  def ingest(cfg: ModelarDB.Config, setup: ModelarDB.Setup, points: DataFrame): ModelarDB.IngestStats = {
    val t0 = System.nanoTime()
    val (st, acc) = sparkSpan("core.ingest")(ModelarDB.ingest(spark, cfg, setup, points))
    acc.foreach { a =>
      val compress = a.shuffleReadStage
      val runNs    = a.runMs * 1e6
      ingestSamples += IngestSample(
        seconds = (System.nanoTime() - t0) / 1e9,
        taskRunS = a.runMs / 1e3, taskCpuS = a.cpuNs / 1e9, gcS = a.gcMs / 1e3,
        busyTaskFrac = compress.count(_.shuffleRecordsRead > 0).toDouble / setup.numPartitions,
        taskRunMaxOverMean = a.skew(compress),
        shuffleWriteBytes = a.shuffleWriteBytes.toDouble,
        compressShare = if (runNs > 0) st.compressNanos / runNs else 0.0,
        splitMergeShare = if (st.compressNanos > 0) st.splitMergeNanos.toDouble / st.compressNanos else 0.0)
    }
    st
  }

  /** Build a query and collect its answer; traced, as a `views.plan` span
    * (build the DataFrame and its executed plan) and a `views.exec` span.
    */
  def query(storePath: String)(build: => DataFrame): Array[Row] =
    if (!tracer.active) build.collect()
    else {
      val t0 = System.nanoTime()
      val (df, planAcc) = sparkSpan("views.plan") { val d = build; d.queryExecution.executedPlan; d }
      val t1 = System.nanoTime()
      val (rows, execAcc) = sparkSpan("views.exec")(df.collect())
      val t2 = System.nanoTime()
      val plan = df.queryExecution.executedPlan
      val (scanRows, genRows) = Ctx.scanAndExplodeRows(plan)
      val accs = planAcc.toSeq ++ execAcc
      val tasks = accs.flatMap(_.allTasks)
      querySamples += QuerySample(
        planS = (t1 - t0) / 1e9, execS = (t2 - t1) / 1e9,
        scanSegments = scanRows.toDouble, explodedRows = genRows.toDouble,
        jobs = accs.map(_.jobs).sum, stages = accs.map(_.stages).sum, tasks = accs.map(_.tasks).sum,
        taskRunS = accs.map(_.runMs).sum / 1e3, taskCpuS = accs.map(_.cpuNs).sum / 1e9,
        gcS = accs.map(_.gcMs).sum / 1e3,
        taskRunMaxOverMean = if (tasks.isEmpty) 1.0 else accs.head.skew(tasks),
        shuffleBytes = accs.map(_.shuffleWriteBytes).sum.toDouble,
        filesMatchedFrac = Ctx.filesMatchedFrac(plan, storePath))
      rows
    }
}

object Ctx extends AdaptiveSparkPlanHelper {

  def delete(f: File): Unit = {
    if (f.isDirectory) Option(f.listFiles()).foreach(_.foreach(delete))
    f.delete()
  }

  /** Rows out of the segment scan, and rows out of the explode right above
    * it (one per represented series of each segment), from the plan metrics.
    */
  def scanAndExplodeRows(plan: SparkPlan): (Long, Long) = {
    val scans = collect(plan) { case s: BatchScanExec => s }
    val gens  = collect(plan) {
      case g: GenerateExec if collect(g.child) { case x: GenerateExec => x }.isEmpty &&
                              collect(g.child) { case s: BatchScanExec => s }.nonEmpty => g
    }
    (scans.map(_.metrics("numOutputRows").value).sum, gens.map(_.metrics("numOutputRows").value).sum)
  }

  /** Share of the store's files whose header matches the Gid/time predicates
    * of the filter over the segment scan, as `SegmentSource` decides it.
    */
  def filesMatchedFrac(plan: SparkPlan, storePath: String): Double = {
    def conjuncts(e: Expression): Seq[Expression] = e match {
      case And(a, b) => conjuncts(a) ++ conjuncts(b)
      case x         => Seq(x)
    }
    val preds = collect(plan) {
      case f: FilterExec if collect(f.child) { case s: BatchScanExec => s }.nonEmpty => f.condition
    }.flatMap(conjuncts).flatMap(e => SparkInternals.translateFilter(e))
    val (pushed, _) = SegmentSource.extract(preds.toArray)
    val files = SegmentSource.listFiles(storePath)
    if (files.isEmpty) 0.0
    else files.count(f => pushed.matchesFile(SegmentCodec.stats(
      java.nio.file.Files.readAllBytes(f.toPath)))).toDouble / files.length
  }
}
