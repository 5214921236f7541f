package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

/** The ModelarDB+ benchmark: one workload per run, a closed loop with one
  * client and no think time, every answer checked.
  *
  * {{{
  *   perfbench.Main --workload <ingest|query-scan|query-select> --seed <n>
  *                  --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * The last line of standard output is the result: end-to-end metrics with
  * `--trace 0`, per-layer metrics with `--trace 1`. The line before it holds
  * the run conditions and each operation class's latencies. A traced run
  * also writes its spans to `<out>/trace-<workload>-<seed>.json`.
  */
object Main {

  /** Set-ups per run; the reported set-up time is their median. */
  val SetupRepeats = 3

  /** Untimed warm-up after set-up: at least this long, in whole passes of the mix. */
  val WarmupSeconds = 3.0

  val SparkConf: Seq[(String, String)] = Seq(
    "spark.master"             -> "local[4]",
    "spark.ui.enabled"         -> "false",
    "spark.driver.host"        -> "127.0.0.1",
    "spark.sql.shuffle.partitions" -> "64",
  )

  final case class Sample(index: Int, kind: String, points: Long, seconds: Double, traced: Boolean)

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.getOrElse("workload", sys.error("--workload is required"))
    val seed     = opts.getOrElse("seed", "1").toLong
    val seconds  = opts.getOrElse("seconds", "10").toDouble
    val traced   = opts.getOrElse("trace", "0") == "1"
    val out      = new File(opts.getOrElse("out", "perfbench-out"))
    val work     = new File(out, s"work-${ProcessHandle.current().pid()}")
    Ctx.delete(work)

    val builder = SparkSession.builder().appName(s"perfbench-$workload")
      .config("spark.local.dir", new File(work, "spark-local").getAbsolutePath)
    SparkConf.foreach { case (k, v) => builder.config(k, v) }
    val spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try {
      val ctx = new Ctx(spark, new Tracer(traced), work)
      val wl: Workload = workload match {
        case "ingest"       => new IngestWorkload(ctx, seed, sf = 0.03)
        case "query-scan"   => new QueryScanWorkload(ctx, seed, sf = 0.005, replicas = 4)
        case "query-select" => new QuerySelectWorkload(ctx, seed, sf = 0.015, batches = 4)
        case other          => sys.error(s"unknown workload $other")
      }
      run(ctx, wl, workload, seed, seconds, out)
    } finally {
      spark.stop()
      Ctx.delete(work)
    }
  }

  private def run(ctx: Ctx, wl: Workload, workload: String, seed: Long, seconds: Double,
                  out: File): Unit = {
    val tracer   = ctx.tracer
    val failures = mutable.ArrayBuffer.empty[String]
    val phases   = mutable.ArrayBuffer.empty[(String, Any)]
    var mark     = System.currentTimeMillis()
    def phase(name: String, from: Long = mark): Unit = {
      val now = System.currentTimeMillis()
      phases += name -> (now - from) / 1e3
      mark = now
    }
    phase("start", ManagementFactory.getRuntimeMXBean.getStartTime)

    val setupTimes = (1 to SetupRepeats).map { _ =>
      val t0 = System.nanoTime()
      tracer.span("setup")(wl.setup())
      (System.nanoTime() - t0) / 1e9
    }

    def once(i: Int, trace: Boolean): Option[Sample] = {
      val op = wl.op(i)
      tracer.active = trace
      val attempt = scala.util.Try {
        tracer.span(s"op.${op.kind}") {
          val t0    = System.nanoTime()
          val check = op.run()
          (check, (System.nanoTime() - t0) / 1e9)
        }
      }
      tracer.active = false
      val result = attempt.toEither.left.map(e => s"${op.kind}: ${e}").flatMap { case (check, s) =>
        check().toLeft(Sample(i, op.kind, op.points, s, trace))
      }
      result.left.foreach { msg => failures += msg; Console.err.println(s"[perfbench] FAILED $msg") }
      result.toOption
    }

    phase("setup")
    val warm0 = System.nanoTime()
    var w = 0
    while (w < wl.mixLength || w % wl.mixLength != 0 || System.nanoTime() - warm0 < WarmupSeconds * 1e9) {
      once(w, trace = false)
      w += 1
    }
    val warmupFailures = failures.length
    phase("warmup")

    // Whole passes over the mix. A traced run interleaves traced and untraced
    // passes; the difference between them is the tracing overhead.
    val samples = mutable.ArrayBuffer.empty[Sample]
    var attempted = 0
    val t0 = System.nanoTime()
    while (System.nanoTime() - t0 < seconds * 1e9 || attempted % wl.mixLength != 0) {
      once(attempted, trace = tracer.enabled && (attempted / wl.mixLength) % 2 == 0).foreach(samples += _)
      attempted += 1
    }
    val loopFailures = failures.length - warmupFailures
    phase("loop")
    tracer.active = tracer.enabled
    val finishFailures = tracer.span("finish")(wl.finish())
    failures ++= finishFailures
    finishFailures.foreach(m => Console.err.println(s"[perfbench] FAILED $m"))
    phase("finish")

    val busy = samples.map(_.seconds).sum
    // Mean latency of each complete pass over the mix, so that every class
    // of the mix weighs the same in the median.
    val passes = samples.groupBy(_.index / wl.mixLength).values
      .filter(_.length == wl.mixLength).map(p => p.map(_.seconds).sum / p.length).toSeq
    val classes  = samples.groupBy(_.kind).toSeq.sortBy(_._1).map { case (k, ss) =>
      val xs = ss.map(_.seconds).toSeq
      k -> Report.obj("n" -> xs.length, "s_p50" -> Report.median(xs),
                      "s_p90" -> Report.quantile(xs, 0.9), "s_max" -> xs.max)
    }

    val conditions = Report.obj(
      (Seq[(String, Any)](
        "workload" -> workload, "seed" -> seed, "seconds" -> seconds, "trace" -> tracer.enabled,
        "nproc" -> Runtime.getRuntime.availableProcessors(),
        "spark_master" -> ctx.spark.sparkContext.master,
        "spark_conf" -> Report.obj(SparkConf: _*),
        "spark_version" -> ctx.spark.version,
        "default_parallelism" -> ctx.spark.sparkContext.defaultParallelism,
        "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
        "jvm_args" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq,
        "max_heap_mb" -> Runtime.getRuntime.maxMemory() / 1048576,
        "git_revision" -> sys.env.getOrElse("PERFBENCH_GIT_REVISION", "unknown"),
        "source_sha256" -> sys.env.getOrElse("PERFBENCH_SOURCE_SHA256", "unknown"),
        "setup_repeats" -> SetupRepeats, "warmup_ops" -> w, "warmup_failures" -> warmupFailures,
        "loop_failures" -> loopFailures,
      ) ++ wl.conditions): _*)

    val metrics: Seq[(String, Double, String)] =
      if (!tracer.enabled) Seq(
        ("setup_s", Report.median(setupTimes), "s"),
        ("mpoints_per_s", if (busy > 0) samples.map(_.points).sum / 1e6 / busy else 0.0, "Mpoints/s"),
        ("ops_per_s", if (busy > 0) samples.length / busy else 0.0, "1/s"),
        ("latency_s_p50", Report.medianOr(passes, Report.medianOr(samples.map(_.seconds).toSeq, 0.0)), "s"),
        ("bytes_per_point", wl.bytesPerPoint, "B/point"),
      )
      else layerMetrics(ctx, wl, samples.toSeq)
    phase("metrics")

    val info = Report.obj("conditions" -> conditions, "phases_s" -> Report.obj(phases.toSeq: _*),
                          "classes" -> Report.obj(classes: _*),
                          "avg_error_pct" -> wl.avgErrorPct, "failures" -> failures.take(10).toSeq)
    if (tracer.enabled) {
      val file = new File(out, s"trace-$workload-$seed.json")
      tracer.write(file, Map("conditions" -> conditions, "metrics" ->
        Report.obj(metrics.map { case (n, v, _) => n -> v }: _*)))
      Console.err.println(s"[perfbench] trace written to $file")
    }
    println(Report.json(info))
    println(Report.json(Report.obj(
      "correct" -> failures.isEmpty,
      "attempted" -> attempted,
      "failed" -> (attempted - samples.length),
      "metrics" -> Report.obj(metrics.map { case (n, v, u) => n -> Report.obj("value" -> v, "unit" -> u) }: _*),
    )))
  }

  /** The per-layer metrics of a traced run. */
  private def layerMetrics(ctx: Ctx, wl: Workload, samples: Seq[Sample]): Seq[(String, Double, String)] = {
    val passes = LayerPasses.run(ctx.tracer, wl.layerInput).toMap
    def med[A](xs: Seq[A])(f: A => Double): Double = Report.medianOr(xs.map(f), 0.0)
    def mean[A](xs: Seq[A])(f: A => Double): Double = if (xs.isEmpty) 0.0 else xs.map(f).sum / xs.length
    val g = ctx.groupingSamples
    val i = ctx.ingestSamples.toSeq
    val q = ctx.querySamples.toSeq

    // Tracing overhead: per operation class, median traced over median
    // untraced latency; the geometric mean over classes, minus one.
    val ratios = samples.groupBy(_.kind).values.flatMap { ss =>
      val (t, u) = ss.partition(_.traced)
      Option.when(t.nonEmpty && u.nonEmpty)(Report.median(t.map(_.seconds)) / Report.median(u.map(_.seconds)))
    }
    val overhead = if (ratios.isEmpty) 0.0 else math.exp(ratios.map(math.log).sum / ratios.size) - 1

    val heapPeak = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == java.lang.management.MemoryType.HEAP).map(_.getPeakUsage.getUsed).sum

    Seq(
      ("grouping.setup_s", med(g.toSeq)(_.seconds), "s"),
      ("grouping.groups", med(g.toSeq)(_.groups.toDouble), "count"),
      ("grouping.avg_group_size", med(g.toSeq)(_.avgGroupSize), "series"),
      ("grouping.planned_load_max_over_mean", med(g.toSeq)(_.plannedLoadMaxOverMean), "ratio"),
      ("core.ingest_s", med(i)(_.seconds), "s"),
      ("core.ingest.task_run_s", med(i)(_.taskRunS), "s"),
      ("core.ingest.task_cpu_s", med(i)(_.taskCpuS), "s"),
      ("core.ingest.gc_s", mean(i)(_.gcS), "s"),
      ("core.ingest.busy_task_frac", med(i)(_.busyTaskFrac), "ratio"),
      ("core.ingest.task_run_max_over_mean", med(i)(_.taskRunMaxOverMean), "ratio"),
      ("core.ingest.shuffle_write_bytes", med(i)(_.shuffleWriteBytes), "B"),
      ("core.ingest.compress_share", med(i)(_.compressShare), "ratio"),
      ("core.ingest.split_merge_share", med(i)(_.splitMergeShare), "ratio"),
    ) ++ passes.toSeq.sortBy(_._1).map { case (n, v) => (n, v, unitOf(n)) } ++ Seq(
      ("storage.files_matched_frac", mean(q)(_.filesMatchedFrac), "ratio"),
      ("storage.scan_segments", med(q)(_.scanSegments), "count"),
      ("views.plan_s", med(q)(_.planS), "s"),
      ("views.exec_s", med(q)(_.execS), "s"),
      ("views.rows_per_segment", q.map(_.explodedRows).sum / math.max(1.0, q.map(_.scanSegments).sum), "ratio"),
      ("views.jobs", med(q)(_.jobs), "count"),
      ("views.stages", med(q)(_.stages), "count"),
      ("views.tasks", med(q)(_.tasks), "count"),
      ("views.task_run_s", med(q)(_.taskRunS), "s"),
      ("views.task_cpu_s", med(q)(_.taskCpuS), "s"),
      ("views.gc_s", mean(q)(_.gcS), "s"),
      ("views.task_run_max_over_mean", med(q)(_.taskRunMaxOverMean), "ratio"),
      ("views.shuffle_bytes", med(q)(_.shuffleBytes), "B"),
      ("model.avg_error_pct", wl.avgErrorPct, "%"),
      ("process.heap_mb_peak", heapPeak / 1048576.0, "MB"),
      ("trace.overhead_frac", overhead, "ratio"),
    )
  }

  private def unitOf(name: String): String =
    if (name.endsWith("_mb_s")) "MB/s"
    else if (name.contains("ns_per_point")) "ns/point"
    else if (name.contains("ns_per_segment")) "ns/segment"
    else if (name.endsWith("per_kpoint")) "1/kpoint"
    else if (name.contains("share") || name.endsWith("ratio")) "ratio"
    else if (name == "storage.bytes") "B"
    else "count"
}
