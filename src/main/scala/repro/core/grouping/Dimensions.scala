package repro.core.grouping

import repro.core.Types.TimeSeriesMeta

/** A dimension's hierarchy (paper Section II): named levels ordered from just
  * below the implicit top ⊤ (level 1) down to the most specific level
  * (level `levels.length`). A series' members for the dimension are stored
  * denormalized in [[TimeSeriesMeta.dims]] in the same top-down order.
  *
  * Example (running example of the paper): `Location` with levels
  * `Country, Region, Park, Turbine` — a series from turbine 9834 in Aalborg
  * has members `[DK, NorthJutland, Aalborg, 9834]`.
  */
final case class DimensionSpec(name: String, levels: IndexedSeq[String]) {
  require(levels.nonEmpty, s"dimension $name needs at least one level")

  /** Number of named levels (the paper's `levels_d`). */
  def depth: Int = levels.length
}

object Dimensions {

  /** Members of `meta` for dimension `dim`, top-down; a series with no entry
    * for the dimension shares only ⊤ with everything.
    */
  def membersOf(meta: TimeSeriesMeta, dim: DimensionSpec): IndexedSeq[String] =
    meta.dims.getOrElse(dim.name, IndexedSeq.empty)

  /** Does `meta` have `member` at 1-based `level` of the dimension named
    * `dimension`? A series without that dimension or level does not.
    */
  def hasMember(meta: TimeSeriesMeta, dimension: String, level: Int, member: String): Boolean = {
    val ms = meta.dims.getOrElse(dimension, IndexedSeq.empty)
    level >= 1 && ms.length >= level && ms(level - 1) == member
  }

  /** Lowest Common Ancestor level of a set of series for one dimension: the
    * deepest level (counting ⊤ as 0) down to which ALL series share members
    * (paper Section IV-B, Figure 7).
    */
  def lcaLevel(series: Seq[TimeSeriesMeta], dim: DimensionSpec): Int = {
    require(series.nonEmpty, "LCA of an empty set is undefined")
    val memberLists = series.map(membersOf(_, dim))
    val maxDepth    = memberLists.map(_.length).min
    var level = 0
    var stop  = false
    while (!stop && level < maxDepth) {
      val m = memberLists.head(level)
      if (memberLists.forall(_(level) == m)) level += 1 else stop = true
    }
    level
  }

  /** The normalized distance between two groups of series over all
    * dimensions (paper Section IV-C):
    * `dist = (Σ_d weight_d · (levels_d − lca_d)/levels_d) / |D|`, capped at
    * 1.0, where `weight_d` is the reciprocal of the user weight (so raising a
    * dimension's weight tightens its influence).
    */
  def distance(
      g1: Seq[TimeSeriesMeta],
      g2: Seq[TimeSeriesMeta],
      dims: Seq[DimensionSpec],
      userWeights: Map[String, Double] = Map.empty,
  ): Double = {
    require(dims.nonEmpty, "distance needs at least one dimension")
    val sum = dims.map { d =>
      val w   = 1.0 / userWeights.getOrElse(d.name, 1.0)
      val lca = lcaLevel(g1 ++ g2, d)
      w * (d.depth - lca).toDouble / d.depth
    }.sum
    math.min(sum / dims.length, 1.0)
  }

  /** The `auto` distance (paper Section IV-B): the lowest non-zero distance
    * possible in the data set, `(1/max(Levels))/|D|`.
    */
  def autoDistance(dims: Seq[DimensionSpec]): Double = {
    require(dims.nonEmpty, "auto distance needs at least one dimension")
    (1.0 / dims.map(_.depth).max) / dims.length
  }
}
