package repro.core.storage

import java.io.File
import java.nio.file.{DirectoryNotEmptyException, Files, Paths, StandardCopyOption}
import java.util.UUID
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, SupportsWrite, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.connector.write._
import org.apache.spark.sql.sources._
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow

import repro.core.Types.SegmentRecord

/** DataSourceV2 provider for the segment group store (`.sgmt` files on the
  * local filesystem) — the paper's "Segment Storage" component, exposed to
  * Spark as `spark.read.format("repro.core.storage.SegmentSource")`.
  *
  * Supports predicate push-down on `gid`, `end_time` and `start_time`
  * (the columns the paper pushes to Cassandra, Section VI-B): pushed
  * predicates are used both for whole-file skipping via the per-file
  * min/max header and for row filtering during the scan. Pushed filters are
  * also left in the residual so Catalyst re-checks them — push-down here is
  * a pruning optimization, never a correctness dependency.
  *
  * Segments reach the store only through this source's batch write
  * (`df.write.format(FormatName).mode("append").save(path)`), whose files
  * become visible together when the job commits.
  */
final class SegmentSource extends TableProvider {
  override def inferSchema(options: CaseInsensitiveStringMap): StructType = SegmentSource.Schema

  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: java.util.Map[String, String]): Table = {
    val path = properties.get("path")
    require(path != null, "option 'path' is required for the segment store")
    new SegmentTable(path)
  }

  override def supportsExternalMetadata(): Boolean = false
}

object SegmentSource {
  /** The segment table schema (paper Figure 6; `start_time` is materialized
    * from Size on read).
    */
  val Schema: StructType = StructType(Seq(
    StructField("gid", IntegerType, nullable = false),
    StructField("start_time", LongType, nullable = false),
    StructField("end_time", LongType, nullable = false),
    StructField("si", IntegerType, nullable = false),
    StructField("mid", IntegerType, nullable = false),
    StructField("params", BinaryType, nullable = false),
    StructField("gaps", LongType, nullable = false),
  ))

  val FormatName: String = classOf[SegmentSource].getName

  /** Bounds extracted from pushed filters; evaluated against file headers
    * (skip) and rows (filter).
    */
  final case class Pushed(
      gids: Option[Set[Int]] = None,
      minGid: Int = Int.MinValue, maxGid: Int = Int.MaxValue,
      minEnd: Long = Long.MinValue, maxEnd: Long = Long.MaxValue,
      minStart: Long = Long.MinValue, maxStart: Long = Long.MaxValue,
  ) extends Serializable {

    def matchesFile(st: SegmentCodec.FileStats): Boolean = {
      val gidOk = gids.forall(g => g.exists(x => x >= st.minGid && x <= st.maxGid)) &&
        st.maxGid >= minGid && st.minGid <= maxGid
      // start_time bounds cannot prune files (only end_time is in the header).
      gidOk && st.maxEnd >= minEnd && st.minEnd <= maxEnd
    }

    def matchesRow(s: SegmentRecord): Boolean =
      gids.forall(_.contains(s.gid)) &&
        s.gid >= minGid && s.gid <= maxGid &&
        s.endTime >= minEnd && s.endTime <= maxEnd &&
        s.startTime >= minStart && s.startTime <= maxStart
  }

  /** Fold the supported subset of Spark filters into [[Pushed]] bounds;
    * returns the bounds and the filters actually used.
    */
  def extract(filters: Array[Filter]): (Pushed, Array[Filter]) = {
    var p    = Pushed()
    val used = ArrayBuffer.empty[Filter]
    filters.foreach {
      case f @ EqualTo("gid", v: Int)             => p = p.copy(gids = Some(intersect(p.gids, Set(v)))); used += f
      case f @ In("gid", vs) if vs.forall(_.isInstanceOf[Int]) =>
        val set = vs.collect { case i: Int => i }.toSet
        p = p.copy(gids = Some(intersect(p.gids, set))); used += f
      case f @ GreaterThan("gid", v: Int)         => p = p.copy(minGid = math.max(p.minGid, v + 1)); used += f
      case f @ GreaterThanOrEqual("gid", v: Int)  => p = p.copy(minGid = math.max(p.minGid, v)); used += f
      case f @ LessThan("gid", v: Int)            => p = p.copy(maxGid = math.min(p.maxGid, v - 1)); used += f
      case f @ LessThanOrEqual("gid", v: Int)     => p = p.copy(maxGid = math.min(p.maxGid, v)); used += f
      case f @ GreaterThan("end_time", v: Long)   => p = p.copy(minEnd = bump(p.minEnd, v + 1)); used += f
      case f @ GreaterThanOrEqual("end_time", v: Long) => p = p.copy(minEnd = bump(p.minEnd, v)); used += f
      case f @ LessThan("end_time", v: Long)      => p = p.copy(maxEnd = math.min(p.maxEnd, v - 1)); used += f
      case f @ LessThanOrEqual("end_time", v: Long) => p = p.copy(maxEnd = math.min(p.maxEnd, v)); used += f
      case f @ GreaterThan("start_time", v: Long) => p = p.copy(minStart = bump(p.minStart, v + 1)); used += f
      case f @ GreaterThanOrEqual("start_time", v: Long) => p = p.copy(minStart = bump(p.minStart, v)); used += f
      case f @ LessThan("start_time", v: Long)    => p = p.copy(maxStart = math.min(p.maxStart, v - 1)); used += f
      case f @ LessThanOrEqual("start_time", v: Long) => p = p.copy(maxStart = math.min(p.maxStart, v)); used += f
      case _                                      => ()
    }
    (p, used.toArray)
  }

  private def intersect(a: Option[Set[Int]], b: Set[Int]): Set[Int] =
    a.map(_.intersect(b)).getOrElse(b)
  private def bump(cur: Long, v: Long): Long = math.max(cur, v)

  /** List the committed `.sgmt` files directly under a store path, stable
    * order; staged files under `_staging/` are not part of the store.
    */
  def listFiles(path: String): Seq[File] = {
    val dir = new File(path)
    if (!dir.exists()) Seq.empty
    else dir.listFiles((_, n) => n.endsWith(".sgmt")).toSeq.sortBy(_.getName)
  }

  /** Encode `segments` into one new `.sgmt` file in the existing directory
    * `dir`. Only the DataSourceV2 writer calls it, with its staging directory.
    */
  private[storage] def writeFile(dir: String, segments: Seq[SegmentRecord]): File = {
    val f = new File(dir, s"part-${UUID.randomUUID().toString.take(12)}.sgmt")
    Files.write(f.toPath, SegmentCodec.encode(segments))
    f
  }

  /** Total on-disk size of a store in bytes. */
  def storeBytes(path: String): Long = listFiles(path).map(_.length()).sum

  private[storage] def toRow(s: SegmentRecord): InternalRow =
    new GenericInternalRow(Array[Any](s.gid, s.startTime, s.endTime, s.si, s.mid, s.params, s.gaps))

  private[storage] def fromRow(r: InternalRow): SegmentRecord =
    SegmentRecord(r.getInt(0), r.getLong(1), r.getLong(2), r.getInt(3), r.getInt(4),
                  r.getBinary(5), r.getLong(6))
}

// ---- table -----------------------------------------------------------------

private final class SegmentTable(path: String) extends Table with SupportsRead with SupportsWrite {
  override def name(): String          = s"segments(`$path`)"
  override def schema(): StructType    = SegmentSource.Schema
  override def capabilities(): java.util.Set[TableCapability] =
    java.util.EnumSet.of(TableCapability.BATCH_READ, TableCapability.BATCH_WRITE)

  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new SegmentScanBuilder(path)

  override def newWriteBuilder(info: LogicalWriteInfo): WriteBuilder = new WriteBuilder {
    override def build(): Write = new Write {
      override def toBatch: BatchWrite = new SegmentBatchWrite(path, info.queryId())
    }
  }
}

// ---- read ------------------------------------------------------------------

private final class SegmentScanBuilder(path: String)
    extends ScanBuilder with SupportsPushDownFilters {
  private var pushed: SegmentSource.Pushed = SegmentSource.Pushed()
  private var used: Array[Filter]          = Array.empty

  override def pushFilters(filters: Array[Filter]): Array[Filter] = {
    val (p, u) = SegmentSource.extract(filters)
    pushed = p
    used = u
    filters // keep everything in the residual: pruning only, never semantics
  }

  override def pushedFilters(): Array[Filter] = used

  override def build(): Scan = new Scan with Batch {
    override def readSchema(): StructType = SegmentSource.Schema
    override def toBatch: Batch           = this

    /** At most one partition per core, the files spread over them by size
      * (largest first onto the lightest), so the number of tasks does not
      * grow with the number of ingest batches a store was written in.
      */
    override def planInputPartitions(): Array[InputPartition] = {
      val files = SegmentSource.listFiles(path).sortBy(-_.length())
      val n     = math.min(files.length, SparkSession.active.sparkContext.defaultParallelism)
      val parts = Array.fill(n)(ArrayBuffer.empty[String])
      val bytes = new Array[Long](n)
      files.foreach { f =>
        val i = bytes.indices.minBy(bytes(_))
        parts(i) += f.getAbsolutePath
        bytes(i) += f.length()
      }
      parts.map(p => SegmentFilesPartition(p.toSeq): InputPartition)
    }

    override def createReaderFactory(): PartitionReaderFactory =
      new SegmentReaderFactory(pushed)
  }
}

private final case class SegmentFilesPartition(files: Seq[String]) extends InputPartition

private final class SegmentReaderFactory(pushed: SegmentSource.Pushed)
    extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] = {
    val files = partition.asInstanceOf[SegmentFilesPartition].files
    val rows: Iterator[SegmentRecord] = files.iterator.flatMap { file =>
      val bytes = Files.readAllBytes(Paths.get(file))
      if (!pushed.matchesFile(SegmentCodec.stats(bytes))) Iterator.empty
      else SegmentCodec.decode(bytes).iterator.filter(pushed.matchesRow)
    }
    new PartitionReader[InternalRow] {
      private var cur: SegmentRecord = _
      override def next(): Boolean = { if (rows.hasNext) { cur = rows.next(); true } else false }
      override def get(): InternalRow = SegmentSource.toRow(cur)
      override def close(): Unit = ()
    }
  }
}

// ---- write -----------------------------------------------------------------

/** The store's one write path. Each task encodes its rows into one file under
  * `<store>/_staging/<queryId>/`; the job commit moves the files named in the
  * commit messages into the store, so readers, which list only top-level
  * `.sgmt` files, see a job's files only once it has committed. Files of
  * failed or duplicate task attempts are never named and are deleted with
  * the staging directory, on commit and on abort alike.
  */
private final class SegmentBatchWrite(path: String, queryId: String) extends BatchWrite {
  private val root    = Paths.get(path, "_staging")
  private val staging = root.resolve(queryId)

  // Created here, before any task runs, so a task that outlives an abort
  // fails to write instead of re-creating the directory.
  override def createBatchWriterFactory(info: PhysicalWriteInfo): DataWriterFactory = {
    Files.createDirectories(staging)
    new SegmentWriterFactory(staging.toString)
  }

  override def commit(messages: Array[WriterCommitMessage]): Unit = {
    messages.foreach {
      case SegmentWriteCommit(file) if file.nonEmpty =>
        val src = Paths.get(file)
        Files.move(src, Paths.get(path, src.getFileName.toString), StandardCopyOption.ATOMIC_MOVE)
      case _ => ()
    }
    removeStaging()
  }

  override def abort(messages: Array[WriterCommitMessage]): Unit = removeStaging()

  private def removeStaging(): Unit = {
    Option(staging.toFile.listFiles()).foreach(_.foreach(_.delete()))
    Files.deleteIfExists(staging)
    // Another write's staging directory keeps `_staging` alive.
    try Files.deleteIfExists(root) catch { case _: DirectoryNotEmptyException => () }
  }
}

private final case class SegmentWriteCommit(file: String) extends WriterCommitMessage

private final class SegmentWriterFactory(stagingDir: String) extends DataWriterFactory {
  override def createWriter(partitionId: Int, taskId: Long): DataWriter[InternalRow] =
    new DataWriter[InternalRow] {
      private val buf = ArrayBuffer.empty[SegmentRecord]
      override def write(record: InternalRow): Unit = buf += SegmentSource.fromRow(record)
      override def commit(): WriterCommitMessage =
        if (buf.isEmpty) SegmentWriteCommit("")
        else SegmentWriteCommit(SegmentSource.writeFile(stagingDir, buf.toSeq).getAbsolutePath)
      override def abort(): Unit = ()
      override def close(): Unit = ()
    }
}
