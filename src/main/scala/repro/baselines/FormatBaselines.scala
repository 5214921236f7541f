package repro.baselines

import java.io.File

import org.apache.spark.sql.{DataFrame, SaveMode, SparkSession}
import org.apache.spark.sql.functions._

/** The industry big-data formats the paper compares against (Section VII-A):
  * Parquet and ORC written with Spark's own writers over the schema
  * `(tid, ts, value, <dimensions>)`, rows sorted by `(tid, ts)` so min/max
  * row-group statistics give the same Tid/time pruning the paper gets from
  * its `Tid=n` folder layout.
  */
object FormatBaselines {

  val Parquet: RawStore = SparkFormat("parquet", "Parquet")
  val Orc: RawStore     = SparkFormat("orc", "ORC")

  /** A Spark file format written and read by Spark's own writer and reader. */
  private final case class SparkFormat(format: String, name: String) extends RawStore {

    override def carriesDims: Boolean = true

    override def write(points: DataFrame, path: String): Long = {
      points
        .repartition(col("tid"))
        .sortWithinPartitions("tid", "ts")
        .write.mode(SaveMode.Overwrite).format(format).save(path)
      dirBytes(new File(path))
    }

    override def read(spark: SparkSession, path: String, tids: Option[Seq[Int]] = None): DataFrame = {
      val df = spark.read.format(format).load(path)
      tids.fold(df)(ts => df.filter(col("tid").isin(ts: _*)))
    }
  }

  /** Recursive on-disk size, excluding Spark's bookkeeping files. */
  private def dirBytes(dir: File): Long =
    if (!dir.exists()) 0L
    else if (dir.isFile) {
      val n = dir.getName
      if (n.startsWith("_") || n.startsWith(".")) 0L else dir.length()
    } else dir.listFiles().map(dirBytes).sum
}
