package perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.sql.perfbench.SparkInternals
import org.apache.spark.scheduler._

/** A SparkListener that sums job, stage and task metrics per job group. The
  * benchmark sets the job group to the id of the span that calls into Spark,
  * so each job and stage span is nested under that call, and the counts of
  * one call can be taken after it returns with [[take]].
  */
final class SparkProbe(sc: SparkContext, tracer: Tracer) extends SparkListener {
  import SparkProbe._

  private val accs        = mutable.HashMap.empty[String, Acc]
  private val groupOfJob  = mutable.HashMap.empty[Int, String]
  private val groupOfStage = mutable.HashMap.empty[Int, String]
  private val spanOfJob   = mutable.HashMap.empty[Int, (Long, Long)] // job -> (span id, start ns)
  private val jobOfStage  = mutable.HashMap.empty[Int, Int]

  private def acc(g: String): Acc = accs.getOrElseUpdate(g, new Acc)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g: Option[String] = Option(e.properties).flatMap(p => Option(p.getProperty(SparkInternals.JobGroupKey)))
    g.foreach { group =>
      groupOfJob(e.jobId) = group
      acc(group).jobs += 1
      val parent = group.toLongOption.getOrElse(0L)
      spanOfJob(e.jobId) = (tracer.newId(parent), e.time * 1000000L)
      e.stageIds.foreach { s => groupOfStage(s) = group; jobOfStage.getOrElseUpdate(s, e.jobId) }
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    for (group <- groupOfJob.remove(e.jobId); (id, start) <- spanOfJob.remove(e.jobId))
      tracer.record(id, group.toLongOption.getOrElse(0L), "spark.job", start, e.time * 1000000L)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    groupOfStage.get(info.stageId).foreach { group =>
      acc(group).stages += 1
      for (start <- info.submissionTime; end <- info.completionTime) {
        val parent = jobOfStage.get(info.stageId)
          .flatMap(spanOfJob.get).map(_._1).getOrElse(group.toLongOption.getOrElse(0L))
        tracer.record(tracer.newId(parent), parent, "spark.stage", start * 1000000L, end * 1000000L)
      }
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    for (group <- groupOfStage.get(e.stageId) if m != null) {
      val a = acc(group)
      a.tasks += 1
      a.runMs += m.executorRunTime
      a.cpuNs += m.executorCpuTime
      a.gcMs += m.jvmGCTime
      a.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      a.stageTasks.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) +=
        Task(m.executorRunTime, m.shuffleReadMetrics.recordsRead)
    }
  }

  /** Counts of the calls made under job group `group`, once all their events
    * have arrived; they are removed from the probe.
    */
  def take(group: String): Acc = {
    SparkInternals.awaitListeners(sc)
    synchronized {
      groupOfStage.filterInPlace((_, g) => g != group)
      jobOfStage.filterInPlace((s, _) => groupOfStage.contains(s))
      accs.remove(group).getOrElse(new Acc)
    }
  }
}

object SparkProbe {
  final case class Task(runMs: Long, shuffleRecordsRead: Long)

  final class Acc {
    var jobs = 0
    var stages = 0
    var tasks = 0
    var runMs = 0L
    var cpuNs = 0L
    var gcMs = 0L
    var shuffleWriteBytes = 0L
    val stageTasks = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Task]]

    /** Max task run time over mean task run time of `tasks` (1.0 = balanced). */
    def skew(tasks: Seq[Task]): Double = {
      val runs = tasks.map(_.runMs.toDouble)
      if (runs.isEmpty || runs.sum == 0) 1.0 else runs.max / (runs.sum / runs.length)
    }

    /** Tasks of the last stage that reads a shuffle: where ModelarDB.ingest
      * sorts and compresses the rows of its partitions.
      */
    def shuffleReadStage: Seq[Task] =
      stageTasks.toSeq.sortBy(_._1).map(_._2.toSeq)
        .filter(ts => ts.exists(_.shuffleRecordsRead > 0)).lastOption.getOrElse(Nil)

    def allTasks: Seq[Task] = stageTasks.values.flatten.toSeq
  }
}
