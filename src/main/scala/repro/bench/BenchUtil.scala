package repro.bench

import org.apache.spark.sql.DataFrame

/** Small helpers shared by all benchmark drivers. */
object BenchUtil {

  /** Wall-clock a thunk; returns (result, seconds). */
  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Time a query: force the full result with `collect()`, run `runs` times
    * and keep the best (steady-state) measurement.
    */
  def queryTime(df: => DataFrame, runs: Int = 2): Double =
    (0 until runs).map(_ => timed(df.collect())._2).min

  /** Render an aligned text table (printed into the bench logs and
    * transcribed into EXPERIMENTS.md).
    */
  def table(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all    = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"\n== $title ==" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  def mb(bytes: Long): String    = f"${bytes / 1048576.0}%.2f MiB"
  def secs(s: Double): String    = f"$s%.2f s"
}
