package perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** Spans recorded around the benchmark's calls into each layer of the
  * program. Spans stay in memory and are written out when the run ends; a
  * disabled tracer records nothing and costs one branch per call.
  *
  * Every span carries the id of its root span, so all spans of one operation
  * (one load or one query) share an identifier. Times are epoch nanoseconds,
  * so that driver-side spans and the job/stage spans Spark reports in epoch
  * milliseconds share one clock.
  */
final class Tracer(val enabled: Boolean) {
  import Tracer.Span

  private val spans   = mutable.ArrayBuffer.empty[Span]
  private val rootOf  = mutable.HashMap.empty[Long, Long]
  private var nextId  = 1L
  private var open    = List.empty[Long] // driver thread only
  private val offsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()

  /** When false, [[span]] runs its body untraced (used to interleave traced
    * and untraced operations, which measures the tracing overhead).
    */
  var active: Boolean = enabled

  def nowNs: Long = System.nanoTime() + offsetNs

  /** Innermost open span on the driver thread, 0 if none. */
  def current: Long = open.headOption.getOrElse(0L)

  def newId(parent: Long): Long = synchronized {
    val id = nextId
    nextId += 1
    rootOf(id) = if (parent == 0L) id else rootOf.getOrElse(parent, parent)
    id
  }

  def span[A](name: String)(body: => A): A =
    if (!active) body
    else {
      val parent = current
      val id     = newId(parent)
      val start  = nowNs
      open = id :: open
      try body
      finally {
        open = open.tail
        record(id, parent, name, start, nowNs)
      }
    }

  def record(id: Long, parent: Long, name: String, startNs: Long, endNs: Long): Unit =
    synchronized {
      spans += Span(id, parent, rootOf.getOrElse(id, id), name, startNs, endNs)
    }

  /** Per span name: count, total seconds and self seconds (duration minus the
    * part of it that child spans cover).
    */
  def summary: Seq[(String, Int, Double, Double)] = synchronized {
    val children = spans.groupBy(_.parent)
    def self(s: Span): Long = {
      val kids = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var end     = Long.MinValue
      kids.foreach { case (a, b) =>
        val from = math.max(a, end)
        if (b > from) { covered += b - from; end = b }
      }
      (s.endNs - s.startNs) - covered
    }
    spans.groupBy(_.name).toSeq.sortBy(_._1).map { case (name, ss) =>
      (name, ss.length, ss.map(s => s.endNs - s.startNs).sum / 1e9, ss.map(self).sum / 1e9)
    }
  }

  def write(file: File, header: Map[String, Any]): Unit = synchronized {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try {
      val spanRows = spans.sortBy(_.startNs).map(s => Report.obj(
        "id" -> s.id, "parent" -> s.parent, "root" -> s.root, "name" -> s.name,
        "start_ns" -> s.startNs, "dur_ns" -> (s.endNs - s.startNs)))
      val sum = summary.map { case (n, c, total, self) =>
        Report.obj("name" -> n, "count" -> c, "total_s" -> total, "self_s" -> self)
      }
      out.println(Report.json(header ++ Map("summary" -> sum, "spans" -> spanRows)))
    } finally out.close()
  }
}

object Tracer {
  final case class Span(id: Long, parent: Long, root: Long, name: String,
                        startNs: Long, endNs: Long)
}
