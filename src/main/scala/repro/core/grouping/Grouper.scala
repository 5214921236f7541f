package repro.core.grouping

import scala.collection.mutable.ArrayBuffer
import repro.core.Types.{Group, TimeSeriesMeta}

/** Static grouping of time series from correlation clauses (paper
  * Section IV-C, Algorithm 1) and assignment of group ids.
  */
object Grouper {

  /** Result of static grouping: groups with assigned gids (1-based, ordered
    * by their smallest tid) plus the wall-clock the grouping took — the
    * evaluation reports this cost explicitly.
    */
  final case class Grouping(groups: IndexedSeq[Group], nanos: Long)

  /** Group `series` using the clauses in order (Algorithm 1): start with one
    * group per series; for each clause, merge pairs of groups whose union is
    * fully correlated until a fixpoint — computing cliques without
    * materializing edges. Groups larger than 64 series are split because the
    * Gaps bitmask is 64 bits (paper Section VII-C does the same for the
    * value-based baseline).
    */
  def group(
      series: Seq[TimeSeriesMeta],
      dims: Seq[DimensionSpec],
      clauses: Seq[Correlation],
  ): Grouping = {
    val t0 = System.nanoTime()
    val groups: ArrayBuffer[ArrayBuffer[TimeSeriesMeta]] =
      ArrayBuffer.from(series.map(ts => ArrayBuffer(ts)))

    clauses.foreach { clause =>
      var modified = true
      while (modified) {
        modified = false
        var i = 0
        while (i < groups.length) {
          var j = i + 1
          while (j < groups.length) {
            val (g1, g2) = (groups(i), groups(j))
            if (g1.length + g2.length <= 64 &&
                clause.correlated(g1.toSeq, g2.toSeq, dims)) {
              g1 ++= g2
              groups.remove(j)
              modified = true
              // j now points at the next group; do not advance.
            } else j += 1
          }
          i += 1
        }
      }
    }

    val sorted = groups
      .map(g => g.map(_.tid).sorted.toIndexedSeq)
      .sortBy(_.head)
    val out = sorted.zipWithIndex.map { case (tids, idx) => Group(idx + 1, tids) }
    Grouping(out.toIndexedSeq, System.nanoTime() - t0)
  }
}
