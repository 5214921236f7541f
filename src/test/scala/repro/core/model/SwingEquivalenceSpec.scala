package repro.core.model

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite

/** The Swing fitter's fast path skips revalidating the accepted ticks when
  * the new slope is safely inside the feasible interval. It must accept and
  * reject exactly what the always-revalidating [[SwingReference]] does, and
  * serialize the same bytes.
  */
class SwingEquivalenceSpec extends AnyFunSuite {
  import SwingEquivalenceSpec.Kind

  // ε = 1e-5 % puts the tolerance within an ulp or two of the values, where
  // float rounding decides most appends.
  private val Epsilons = Seq(0.0, 1e-6, 1e-5, 1e-4, 0.01, 1.0, 10.0, 50.0)
  private val Ticks    = 200

  private val Kinds = Seq(
    Kind("zeros", zeros = true), Kind("line"), Kind("line+1e-7", noise = 1e-7),
    Kind("line+1e-6", noise = 1e-6), Kind("bent+1e-7", noise = 1e-7, bent = true))

  /** A seeded stream of `Ticks` ticks for `nSeries` series whose magnitude is
    * drawn log-uniformly from 1e-30 to 1e38. Half the lines cross zero.
    */
  private def stream(kind: Kind, nSeries: Int, rng: Random): Array[Array[Float]] = {
    val mag  = math.pow(10, -30 + 68 * rng.nextDouble())
    val b    = (rng.nextDouble() - 0.5) * mag / Ticks
    val a    = if (rng.nextBoolean()) (rng.nextDouble() - 0.5) * mag else -b * rng.nextInt(Ticks)
    val bend = rng.nextInt(Ticks)
    val b2   = (rng.nextDouble() - 0.5) * mag / Ticks
    def line(t: Int): Double =
      if (kind.bent && t > bend) a + b * bend + b2 * (t - bend) else a + b * t
    Array.tabulate(Ticks) { t =>
      Array.tabulate(nSeries) { _ =>
        if (kind.zeros) 0.0f else (line(t) * (1 + kind.noise * rng.nextGaussian())).toFloat
      }
    }
  }

  /** Feeds one stream to both fitters the way `SegmentGenerator` does (a
    * fresh pair after each rejection, starting at the rejected tick) and
    * returns a description of every disagreement.
    */
  private def mismatches(values: Array[Array[Float]], nSeries: Int, eps: Double): Seq[String] = {
    val out  = Seq.newBuilder[String]
    var ref  = new SwingReference(nSeries, eps)
    var fast = Swing.newFitter(nSeries, eps, 50)
    def compareModels(t: Int): Unit =
      if (ref.length != fast.length) out += s"tick $t: length ${ref.length} vs ${fast.length}"
      else if (ref.length > 0 && !java.util.Arrays.equals(ref.serialize(), fast.serialize()))
        out += s"tick $t: serialize differs"
    var t = 0
    while (t < values.length) {
      val r = ref.append(values(t))
      val f = fast.append(values(t))
      if (r != f) out += s"tick $t: append $r vs $f"
      if (!r || !f) {
        compareModels(t)
        ref = new SwingReference(nSeries, eps)
        fast = Swing.newFitter(nSeries, eps, 50)
        if (ref.append(values(t)) != fast.append(values(t))) out += s"tick $t: first append differs"
      }
      t += 1
    }
    compareModels(t)
    out.result()
  }

  test("fast-path Swing fits exactly like the revalidating reference") {
    var streams, disagreements = 0
    val failures = Seq.newBuilder[String]
    for {
      eps       <- Epsilons
      nSeries   <- 1 to 8
      (kind, k) <- Kinds.zipWithIndex
      rep       <- 0 until 8
    } {
      val rng    = new Random((((eps * 1e6).toLong * 31 + nSeries) * 7 + k) * 1009 + rep)
      val values = stream(kind, nSeries, rng)
      val bad    = mismatches(values, nSeries, eps)
      if (bad.nonEmpty) failures += s"eps=$eps n=$nSeries ${kind.name} rep=$rep: ${bad.head}"
      streams += 1
      disagreements += bad.length
    }
    val f = failures.result()
    assert(streams >= 2000)
    assert(f.isEmpty,
           s"$disagreements disagreements in ${f.length} of $streams streams, e.g. ${f.take(5).mkString("; ")}")
  }
}

object SwingEquivalenceSpec {
  /** A stream family: a line rounded to float, each value off it by about
    * `noise` relative; `bent` changes the slope at a random tick.
    */
  final case class Kind(name: String, zeros: Boolean = false, noise: Double = 0.0,
                        bent: Boolean = false)
}
