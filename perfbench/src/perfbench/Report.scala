package perfbench

import scala.collection.immutable.ListMap

/** Order statistics and the minimal JSON writer the benchmark prints with. */
object Report {

  /** Linear-interpolated quantile `q` in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s   = xs.sorted.toIndexedSeq
    val pos = q * (s.length - 1)
    val lo  = pos.floor.toInt
    val hi  = pos.ceil.toInt
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Median, or `empty` when there are no samples. */
  def medianOr(xs: Seq[Double], empty: Double): Double =
    if (xs.isEmpty) empty else median(xs)

  /** An ordered JSON object. */
  def obj(fields: (String, Any)*): ListMap[String, Any] = ListMap(fields: _*)

  def json(v: Any): String = v match {
    case null                     => "null"
    case s: String                => quote(s)
    case b: Boolean               => b.toString
    case d: Double                => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float                 => json(f.toDouble)
    case i: Int                   => i.toString
    case l: Long                  => l.toString
    case m: collection.Map[_, _]  =>
      m.iterator.map { case (k, x) => quote(k.toString) + ": " + json(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]          => xs.iterator.map(json).mkString("[", ", ", "]")
    case o                        => quote(o.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'          => b ++= "\\\""
      case '\\'         => b ++= "\\\\"
      case '\n'         => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c            => b += c
    }
    (b += '"').toString
  }
}
