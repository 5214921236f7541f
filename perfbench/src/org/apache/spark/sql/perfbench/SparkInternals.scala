package org.apache.spark.sql.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.execution.datasources.DataSourceStrategy
import org.apache.spark.sql.sources.Filter

/** The few Spark internals the benchmark reads; they are package-private,
  * hence this package.
  */
object SparkInternals {

  /** Local property holding the job group that `setJobGroup` sets. */
  val JobGroupKey: String = SparkContext.SPARK_JOB_GROUP_ID

  /** Wait until every listener has seen every event posted so far. Spark
    * posts a job's task and job-end events before the action that ran it
    * returns, so after this call a listener holds that action's full counts.
    */
  def awaitListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** The data source filter Spark would push down for `e`, if any. */
  def translateFilter(e: Expression): Option[Filter] =
    DataSourceStrategy.translateFilter(e, supportNestedPredicatePushdown = true)
}
