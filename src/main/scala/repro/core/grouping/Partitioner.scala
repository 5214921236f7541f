package repro.core.grouping

import repro.core.Types.Group

/** Assignment of time series groups to workers/partitions (paper
  * Section IV-C): each partition should receive approximately the same
  * number of data points per minute, i.e. minimize
  * `max_p(dp_per_min(p)) − min_p(dp_per_min(p))`.
  *
  * The paper bases its method on Korf's multi-way number partitioning; we use
  * the standard longest-processing-time greedy (sort by rate descending,
  * assign to the least-loaded partition), the usual practical approximation
  * of that objective.
  */
object Partitioner {

  /** Data points per minute produced by a group: one point per member per
    * sampling interval.
    */
  def pointsPerMinute(group: Group, siOf: Int => Int): Double =
    group.tids.map(tid => 60000.0 / siOf(tid)).sum

  /** Partition the groups into `n` bins; returns the partition index of each
    * group's gid.
    */
  def partition(groups: Seq[Group], n: Int, siOf: Int => Int): Map[Int, Int] = {
    require(n > 0, "need at least one partition")
    longestFirst(groups, n)(pointsPerMinute(_, siOf)).map { case (g, p) => g.gid -> p }.toMap
  }

  /** The longest-processing-time greedy: `items` by descending weight (ties
    * keep their order), each onto the least-loaded of `n` bins (the lowest
    * on ties); returns each item with its bin. It plans ingest's groups and
    * the segment scan's files.
    */
  def longestFirst[A](items: Seq[A], n: Int)(weight: A => Double): Seq[(A, Int)] = {
    val loads = new Array[Double](n)
    items.map(a => a -> weight(a)).sortBy(-_._2).map { case (a, w) =>
      val p = loads.indices.minBy(loads)
      loads(p) += w
      a -> p
    }
  }

  /** The imbalance the paper's objective measures: max load − min load. */
  def imbalance(groups: Seq[Group], assignment: Map[Int, Int], n: Int,
                siOf: Int => Int): Double = {
    val loads = Array.fill(n)(0.0)
    groups.foreach(g => loads(assignment(g.gid)) += pointsPerMinute(g, siOf))
    loads.max - loads.min
  }
}

/** The plan of [[Partitioner.partition]] as a Spark partitioner over gid
  * keys: a group's records go to its planned partition, so planned
  * partition p is shuffle partition p and runs as task p.
  */
final class GroupPartitioner(partitionOf: Map[Int, Int], override val numPartitions: Int)
    extends org.apache.spark.Partitioner {
  override def getPartition(key: Any): Int = partitionOf(key.asInstanceOf[Int])
}
