package repro.core.grouping

import repro.core.Types.TimeSeriesMeta

/** The grouping primitives users combine into correlation clauses (paper
  * Section IV-B). A clause decides whether two candidate groups are
  * correlated; clauses are applied in their defined order by Algorithm 1, so
  * their order sets their priority.
  */
sealed trait Correlation {

  /** Are the two groups correlated under this clause? Every series of both
    * groups must satisfy it (Algorithm 1, Line 9).
    */
  def correlated(g1: Seq[TimeSeriesMeta], g2: Seq[TimeSeriesMeta],
                 dims: Seq[DimensionSpec]): Boolean
}

object Correlation {

  /** Group the explicitly named sources, e.g. `4aTemp.gz 4bTemp.gz`. */
  final case class Sources(sources: Set[String]) extends Correlation {
    override def correlated(g1: Seq[TimeSeriesMeta], g2: Seq[TimeSeriesMeta],
                            dims: Seq[DimensionSpec]): Boolean =
      (g1 ++ g2).forall(ts => sources.contains(ts.source))
  }

  /** The triple `<dimension> <level> <member>`: series having `member` at
    * named level `level` (1-based from the top) of `dimension` are correlated.
    */
  final case class Member(dimension: String, level: Int, member: String) extends Correlation {
    override def correlated(g1: Seq[TimeSeriesMeta], g2: Seq[TimeSeriesMeta],
                            dims: Seq[DimensionSpec]): Boolean = {
      val dim = Primitives.dim(dims, dimension)
      require(level >= 1 && level <= dim.depth, s"level $level out of range for $dimension")
      (g1 ++ g2).forall(Dimensions.hasMember(_, dim.name, level, member))
    }
  }

  /** The pair `<dimension> <level>`: correlated when the groups' LCA level is
    * at least `level`. Zero means all levels must be equal; a negative `n`
    * means all but the lowest |n| levels must be equal (paper Section IV-B).
    */
  final case class Lca(dimension: String, level: Int) extends Correlation {
    override def correlated(g1: Seq[TimeSeriesMeta], g2: Seq[TimeSeriesMeta],
                            dims: Seq[DimensionSpec]): Boolean = {
      val dim      = Primitives.dim(dims, dimension)
      val required =
        if (level > 0) level
        else if (level == 0) dim.depth
        else dim.depth - math.abs(level)
      require(required >= 0 && required <= dim.depth,
              s"LCA level $level out of range for $dimension (depth ${dim.depth})")
      Dimensions.lcaLevel(g1 ++ g2, dim) >= required
    }
  }

  /** Distance-based correlation: groups whose dimensional distance is at most
    * `threshold` ∈ [0, 1] are correlated; `weights` raises the influence of
    * important dimensions (paper Section IV-C).
    */
  final case class Distance(threshold: Double, weights: Map[String, Double] = Map.empty)
      extends Correlation {
    require(threshold >= 0.0 && threshold <= 1.0, s"distance $threshold outside [0,1]")
    checkWeights(weights)
    override def correlated(g1: Seq[TimeSeriesMeta], g2: Seq[TimeSeriesMeta],
                            dims: Seq[DimensionSpec]): Boolean = {
      weights.keys.foreach(Primitives.dim(dims, _))
      Dimensions.distance(g1, g2, dims, weights) <= threshold
    }
  }

  /** `auto` (paper Section IV-B): rewritten by the partitioner to the lowest
    * non-zero distance possible in the data set before evaluation.
    */
  final case class Auto(weights: Map[String, Double] = Map.empty) extends Correlation {
    checkWeights(weights)
    override def correlated(g1: Seq[TimeSeriesMeta], g2: Seq[TimeSeriesMeta],
                            dims: Seq[DimensionSpec]): Boolean =
      Distance(Dimensions.autoDistance(dims), weights).correlated(g1, g2, dims)
  }

  /** A distance divides by each weight, so it must be finite and positive. */
  private def checkWeights(weights: Map[String, Double]): Unit =
    weights.foreach { case (dim, w) =>
      require(w > 0 && !w.isInfinite, s"weight $w of dimension $dim must be finite and positive")
    }

  /** Conjunction of primitives. */
  final case class And(clauses: Seq[Correlation]) extends Correlation {
    require(clauses.nonEmpty, "AND of zero clauses")
    override def correlated(g1: Seq[TimeSeriesMeta], g2: Seq[TimeSeriesMeta],
                            dims: Seq[DimensionSpec]): Boolean =
      clauses.forall(_.correlated(g1, g2, dims))
  }

  /** Disjunction of primitives. */
  final case class Or(clauses: Seq[Correlation]) extends Correlation {
    require(clauses.nonEmpty, "OR of zero clauses")
    override def correlated(g1: Seq[TimeSeriesMeta], g2: Seq[TimeSeriesMeta],
                            dims: Seq[DimensionSpec]): Boolean =
      clauses.exists(_.correlated(g1, g2, dims))
  }
}

/** Per-series scaling assignments (paper Section IV-B): either for one
  * explicit source or for every series with a given member.
  */
sealed trait ScalingRule {
  def applies(ts: TimeSeriesMeta, dims: Seq[DimensionSpec]): Boolean
  def constant: Double
}

object ScalingRule {
  final case class ForSource(source: String, constant: Double) extends ScalingRule {
    override def applies(ts: TimeSeriesMeta, dims: Seq[DimensionSpec]): Boolean =
      ts.source == source
  }

  /** The 4-tuple `<dimension> <level> <member> <constant>`. */
  final case class ForMember(dimension: String, level: Int, member: String, constant: Double)
      extends ScalingRule {
    override def applies(ts: TimeSeriesMeta, dims: Seq[DimensionSpec]): Boolean =
      Dimensions.hasMember(ts, Primitives.dim(dims, dimension).name, level, member)
  }
}

object Primitives {
  private[grouping] def dim(dims: Seq[DimensionSpec], name: String): DimensionSpec =
    dims.find(_.name == name)
      .getOrElse(throw new IllegalArgumentException(s"unknown dimension $name"))

  /** Resolve the scaling constant of a series: the first matching rule wins,
    * default 1.0 (paper Section III-C).
    */
  def scalingOf(ts: TimeSeriesMeta, rules: Seq[ScalingRule], dims: Seq[DimensionSpec]): Double =
    rules.find(_.applies(ts, dims)).map(_.constant).getOrElse(1.0)
}
