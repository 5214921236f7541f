package repro.baselines

import java.io.File
import java.nio.file.Files

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

/** One of the industry baselines of the paper's evaluation (Section VII-A):
  * a store of raw `(tid, ts, value)` points under one directory.
  */
trait RawStore extends Serializable {

  /** The system the store stands in for, as the experiments' tables name it. */
  def name: String

  /** Whether the stored files hold the dimension columns too. A store
    * without them gets them at query time from the in-memory catalog
    * (`Stores.withDims`).
    */
  def carriesDims: Boolean

  /** Write `points` (with dimension columns if [[carriesDims]]) under
    * `path`; returns the on-disk bytes.
    */
  def write(points: DataFrame, path: String): Long

  /** The stored rows, only those of `tids` when given. */
  def read(spark: SparkSession, path: String, tids: Option[Seq[Int]] = None): DataFrame
}

object RawStore {

  /** The industry baselines, in the order the experiments report them. */
  val all: Seq[RawStore] =
    Seq(FormatBaselines.Parquet, FormatBaselines.Orc, CassandraSim, InfluxSim)
}

/** The layout the Cassandra- and InfluxDB-like baselines share: one file
  * `tid=<n><ext>` per series holding its points sorted by time. A Tid lookup
  * reads only the named series' files, the pruning Cassandra gets from its
  * partition key and InfluxDB from its series index. Only the codec of a
  * series' file differs between the two.
  */
abstract class PerSeriesFileStore(ext: String) extends RawStore {

  override def carriesDims: Boolean = false

  /** Encode one series' points, sorted by time, into its file image. */
  def encodeSeries(points: IndexedSeq[(Long, Float)]): Array[Byte]

  /** Decode a series' file image back to its sorted points. */
  def decodeSeries(bytes: Array[Byte]): IndexedSeq[(Long, Float)]

  override def write(points: DataFrame, path: String): Long = {
    new File(path).mkdirs()
    points
      .repartition(col("tid"))
      .sortWithinPartitions("tid", "ts")
      .select(col("tid").cast("int"), col("ts").cast("long"), col("value").cast("float"))
      .foreachPartition { (rows: Iterator[Row]) =>
        val it = rows.buffered
        while (it.hasNext) {
          val tid = it.head.getInt(0)
          val pts = IndexedSeq.newBuilder[(Long, Float)]
          while (it.hasNext && it.head.getInt(0) == tid) {
            val r = it.next()
            pts += ((r.getLong(1), r.getFloat(2)))
          }
          Files.write(new File(path, s"tid=$tid$ext").toPath, encodeSeries(pts.result()))
        }
      }
    storeBytes(path)
  }

  override def read(spark: SparkSession, path: String, tids: Option[Seq[Int]] = None): DataFrame = {
    import spark.implicits._
    val files = listFiles(path)
      .map(f => (tidOf(f), f.getAbsolutePath))
      .filter { case (tid, _) => tids.forall(_.contains(tid)) }
    spark.sparkContext
      .parallelize(files, math.max(1, math.min(files.length, 64)))
      .flatMap { case (tid, f) =>
        decodeSeries(Files.readAllBytes(new File(f).toPath)).iterator.map { case (ts, v) => (tid, ts, v) }
      }
      .toDF("tid", "ts", "value")
  }

  private def tidOf(f: File): Int = f.getName.stripPrefix("tid=").stripSuffix(ext).toInt

  /** The store's series files, sorted by name. */
  def listFiles(path: String): Seq[File] = {
    val dir = new File(path)
    if (!dir.exists()) Seq.empty
    else dir.listFiles((_, n) => n.startsWith("tid=") && n.endsWith(ext)).toSeq.sortBy(_.getName)
  }

  def storeBytes(path: String): Long = listFiles(path).map(_.length()).sum
}
