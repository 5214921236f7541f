package repro.core.storage

import java.io.{File, IOException}
import java.nio.file.{DirectoryNotEmptyException, Files, Paths, StandardCopyOption}
import java.util.UUID
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import com.fasterxml.jackson.databind.json.JsonMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.sources._
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import org.apache.spark.sql.catalyst.expressions.{GenericInternalRow, SpecificInternalRow}
import org.apache.spark.unsafe.types.UTF8String

import repro.core.{Catalog, GroupTable}
import repro.core.Types.SegmentRecord
import repro.core.model.ModelType

/** DataSourceV2 provider for the segment group store (`.sgmt` files and the
  * store's catalog, `catalog.json`, on the local filesystem) — the paper's
  * "Segment Storage" component, exposed to Spark as one table in three forms,
  * one per format name (`spark.read.format(<format name>).load(path)`):
  *
  *  - [[SegmentSource.FormatName]], the raw segments, [[SegmentSource.Schema]]
  *    (paper Figure 6). Segments reach the store only through
  *    [[SegmentSource.append]], whose files become visible together once its
  *    job has succeeded.
  *  - [[SegmentSource.ViewFormatName]], the paper's Segment View (Section
  *    VI-A): each segment is exploded into one row per member its Gaps
  *    bitmask marks present, carrying the member's Tid, its position
  *    `sidx` among the `nseries` present members, its scaling constant and
  *    its denormalised dimension columns. A segment whose gid is not a group
  *    of the store's catalog fails the scan with an error naming its file.
  *  - [[SegmentSource.PointsFormatName]], the paper's Data Point View: each
  *    segment is decoded once into `(tid, ts, value, <dimension columns>)`
  *    rows of its members.
  *
  * Predicates on `gid`, `end_time` and `start_time` (the columns the paper
  * pushes to Cassandra, Section VI-B) are pushed down. On the views, so are
  * `=`, `IN`, `<`, `<=`, `>`, `>=` on `tid` and `=`/`IN` on dimension
  * columns: each is evaluated against the catalog's series and the matching
  * Tids are rewritten to the Gids of their groups. The pushed bounds skip
  * whole files via the per-file min/max header and filter segments during the
  * scan, and EXPLAIN prints them as the scan's description. Every filter is
  * also left in the residual so Catalyst re-checks it — push-down here is a
  * pruning optimization, never a correctness dependency. On the Data Point
  * View, `ts >= a` and `ts <= b` are pushed as `end_time >= a` and
  * `start_time <= b`: the bounds of the segments that can hold such points.
  */
sealed abstract class SegmentProvider private[storage] (formOf: String => SegmentSource.Form)
    extends TableProvider {
  override def inferSchema(options: CaseInsensitiveStringMap): StructType = table(options).schema()

  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: java.util.Map[String, String]): Table = table(properties)

  private def table(options: java.util.Map[String, String]): SegmentTable = {
    val path = options.get("path")
    require(path != null, "option 'path' is required for the segment store")
    new SegmentTable(path, formOf(path))
  }
}

final class SegmentSource extends SegmentProvider(_ => SegmentSource.Raw)
final class SegmentViewSource extends SegmentProvider(p => SegmentSource.SegmentRows(SegmentSource.catalogOf(p)))
final class DataPointSource extends SegmentProvider(p => SegmentSource.PointRows(SegmentSource.catalogOf(p)))

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

  val FormatName: String       = classOf[SegmentSource].getName
  val ViewFormatName: String   = classOf[SegmentViewSource].getName
  val PointsFormatName: String = classOf[DataPointSource].getName

  /** What a table reads: the raw segments, or a view with the store's
    * catalog. The catalog stays on the driver: a view's readers get its
    * [[GroupTable]] with the members' dimension values instead.
    */
  private[storage] sealed abstract class Form(val catalog: Option[Catalog]) {
    lazy val groups: Option[GroupTable] = catalog.map(GroupTable(_, withDims = true))
  }
  private[storage] case object Raw extends Form(None)
  private[storage] final case class SegmentRows(c: Catalog) extends Form(Some(c))
  private[storage] final case class PointRows(c: Catalog) extends Form(Some(c))

  /** [[Schema]] for the raw form. The Segment View's: the member's `tid`
    * first, then [[Schema]], then the member's position `sidx` among the
    * segment's `nseries` represented members, its `scaling` and the
    * catalog's dimension columns. The Data Point View's: `tid`, `ts`,
    * `value` and the dimension columns.
    */
  private[storage] def schemaOf(form: Form): StructType =
    form.catalog.fold(Schema)(c => StructType(
      StructField("tid", IntegerType, nullable = false) +: (if (form.isInstanceOf[PointRows]) Seq(
        StructField("ts", LongType, nullable = false),
        StructField("value", FloatType, nullable = false)) else Schema.fields ++: Seq(
        StructField("sidx", IntegerType, nullable = false),
        StructField("nseries", IntegerType, nullable = false),
        StructField("scaling", DoubleType, nullable = false))) ++:
        c.dimColumns.map { case (name, _, _) => StructField(name, StringType) }))

  private val CatalogFile = "catalog.json"
  private lazy val Json = JsonMapper.builder().addModule(DefaultScalaModule).build()

  /** The last catalog file parsed and its catalog: a view reads the store's
    * catalog three times, and parsing costs far more than reading the bytes.
    */
  @volatile private var lastParsed: (Array[Byte], Catalog) = (Array.emptyByteArray, null)

  /** The catalog the store at `path` holds, if any. The file is outside input:
    * the [[Catalog]] constructor checks it, and a bad file fails naming it.
    */
  private[core] def storedCatalog(path: String): Option[Catalog] = {
    val file = new File(path, CatalogFile)
    Option.when(file.exists())(try {
      val (bytes, last) = (Files.readAllBytes(file.toPath), lastParsed)
      if (java.util.Arrays.equals(bytes, last._1)) last._2
      else { val c = Json.readValue(bytes, classOf[Catalog]); lastParsed = (bytes, c); c }
    } catch {
      case e: IOException =>
        throw new IllegalArgumentException(s"catalog file $file is damaged or invalid: ${e.getMessage}", e)
    })
  }

  /** The catalog of the store at `path`, which both views need. */
  private[core] def catalogOf(path: String): Catalog = storedCatalog(path).getOrElse(
    throw new IllegalArgumentException(s"store $path holds no catalog; ingest into it first"))

  /** Make `catalog` the store's, creating its directory if needed; written
    * under a temp name and renamed, so a reader never sees a partial file.
    */
  private[core] def writeCatalog(path: String, catalog: Catalog): Unit = {
    val dir = Files.createDirectories(Paths.get(path))
    val tmp = Files.write(dir.resolve(s".$CatalogFile-${UUID.randomUUID()}"), Json.writeValueAsBytes(catalog))
    Files.move(tmp, dir.resolve(CatalogFile), StandardCopyOption.ATOMIC_MOVE)
  }

  /** Remove the store's catalog, if any. */
  private[core] def deleteCatalog(path: String): Unit = Files.deleteIfExists(Paths.get(path, CatalogFile))

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

    /** The bounds as EXPLAIN prints them; unbounded ones are left out. */
    def describe: String = {
      def range[T](name: String, lo: T, hi: T, min: T, max: T): Option[String] =
        if (lo == min && hi == max) None
        else Some(s"$name=[${if (lo == min) "-inf" else lo}, ${if (hi == max) "inf" else hi}]")
      (gids.map(g => g.toSeq.sorted.mkString("gids={", ", ", "}")) ++
        range("gid", minGid, maxGid, Int.MinValue, Int.MaxValue) ++
        range("end_time", minEnd, maxEnd, Long.MinValue, Long.MaxValue) ++
        range("start_time", minStart, maxStart, Long.MinValue, Long.MaxValue))
        .mkString("SegmentScan(", ", ", ")")
    }
  }

  /** Fold the supported subset of Spark filters into [[Pushed]] bounds;
    * returns the bounds and the filters actually used. With a catalog, Tid
    * and dimension-column filters become Gid sets.
    */
  def extract(filters: Array[Filter], catalog: Option[Catalog] = None): (Pushed, Array[Filter]) = {
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
      // A point at ts lies in the segments with start_time <= ts <= end_time.
      case f @ GreaterThan("ts", v: Long)         => p = p.copy(minEnd = bump(p.minEnd, v + 1)); used += f
      case f @ GreaterThanOrEqual("ts", v: Long)  => p = p.copy(minEnd = bump(p.minEnd, v)); used += f
      case f @ LessThan("ts", v: Long)            => p = p.copy(maxStart = math.min(p.maxStart, v - 1)); used += f
      case f @ LessThanOrEqual("ts", v: Long)     => p = p.copy(maxStart = math.min(p.maxStart, v)); used += f
      case f @ EqualTo("ts", v: Long)             =>
        p = p.copy(minEnd = bump(p.minEnd, v), maxStart = math.min(p.maxStart, v)); used += f
      case _                                      => ()
    }
    for (c <- catalog; f <- filters; tids <- seriesMatching(c, f)) {
      p = p.copy(gids = Some(intersect(p.gids, c.gidsForTids(tids)))); used += f
    }
    (p, used.toArray)
  }

  /** The Tids of the catalog's series that a filter on `tid` or on a
    * dimension column selects; None for any other filter.
    */
  private def seriesMatching(c: Catalog, f: Filter): Option[Seq[Int]] = {
    def tids(keep: Int => Boolean) = Some(c.series.map(_.tid).filter(keep))
    def members(column: String, values: Seq[Any]) =
      c.dimColumns.collectFirst { case (`column`, dim, lvl) =>
        values.collect { case m: String => m }.flatMap(c.tidsForMember(dim, lvl + 1, _))
      }
    f match {
      case EqualTo("tid", v: Int)            => tids(_ == v)
      case In("tid", vs)                     => val s = vs.toSet; tids(s.contains)
      case LessThan("tid", v: Int)           => tids(_ < v)
      case LessThanOrEqual("tid", v: Int)    => tids(_ <= v)
      case GreaterThan("tid", v: Int)        => tids(_ > v)
      case GreaterThanOrEqual("tid", v: Int) => tids(_ >= v)
      case EqualTo(column, v: String)        => members(column, Seq(v))
      case In(column, vs)                    => members(column, vs.toSeq)
      case _                                 => None
    }
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
    * `dir`; it never creates `dir`. [[append]]'s tasks call it with their
    * staging directory.
    */
  private[storage] def writeFile(dir: String, segments: Seq[SegmentRecord]): File = {
    val f = new File(dir, s"part-${UUID.randomUUID().toString.take(12)}.sgmt")
    Files.write(f.toPath, SegmentCodec.encode(segments))
    f
  }

  /** The store's one write, in one Spark job: each task encodes its
    * partition's segments, if any, into one file under
    * `<path>/_staging/<id>/` and returns its name, and the driver then moves
    * the returned files into the store. Readers list only top-level `.sgmt`
    * files, so they see the files only once every task has succeeded. Files
    * of failed or duplicate task attempts are never returned and go with the
    * staging directory, which is removed whether the job succeeds or fails.
    */
  def append(path: String, segments: RDD[SegmentRecord]): Unit = {
    val root    = Paths.get(path, "_staging")
    // Created before any task runs, so a task that outlives a failed job
    // fails to write instead of re-creating the directory.
    val staging = Files.createDirectories(root.resolve(UUID.randomUUID().toString)).toString
    try {
      segments.mapPartitions { it =>
        if (it.hasNext) Iterator.single(writeFile(staging, it.toIndexedSeq).getName) else Iterator.empty
      }.collect().foreach(name =>
        Files.move(Paths.get(staging, name), Paths.get(path, name), StandardCopyOption.ATOMIC_MOVE))
    } finally {
      Option(new File(staging).listFiles()).foreach(_.foreach(_.delete()))
      Files.deleteIfExists(Paths.get(staging))
      // Another write's staging directory keeps `_staging` alive.
      try Files.deleteIfExists(root) catch { case _: DirectoryNotEmptyException => () }
    }
  }

  /** Total size of a store's `.sgmt` files in bytes. */
  def storeBytes(path: String): Long = listFiles(path).map(_.length()).sum

  private[storage] def toRow(s: SegmentRecord): InternalRow =
    new GenericInternalRow(Array[Any](s.gid, s.startTime, s.endTime, s.si, s.mid, s.params, s.gaps))
}

// ---- table -----------------------------------------------------------------

private final class SegmentTable(path: String, form: SegmentSource.Form)
    extends Table with SupportsRead {
  override def name(): String          = s"segments(`$path`)"
  override def schema(): StructType    = SegmentSource.schemaOf(form)
  override def capabilities(): java.util.Set[TableCapability] =
    java.util.EnumSet.of(TableCapability.BATCH_READ)

  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new SegmentScanBuilder(path, form)
}

// ---- read ------------------------------------------------------------------

private final class SegmentScanBuilder(path: String, form: SegmentSource.Form)
    extends ScanBuilder with SupportsPushDownFilters {
  private var pushed: SegmentSource.Pushed = SegmentSource.Pushed()
  private var used: Array[Filter]          = Array.empty

  override def pushFilters(filters: Array[Filter]): Array[Filter] = {
    val (p, u) = SegmentSource.extract(filters, form.catalog)
    pushed = p
    used = u
    filters // keep everything in the residual: pruning only, never semantics
  }

  override def pushedFilters(): Array[Filter] = used

  override def build(): Scan = new Scan with Batch {
    override def readSchema(): StructType = SegmentSource.schemaOf(form)
    override def description(): String    = pushed.describe
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
      new SegmentReaderFactory(pushed, readSchema(), form.groups, form.isInstanceOf[SegmentSource.PointRows])
  }
}

private final case class SegmentFilesPartition(files: Seq[String]) extends InputPartition

/** A scan's readers: the raw segments without `groups`; with them, the
  * Segment View's member rows, or the Data Point View's if `points`. The
  * driver derives `schema` and builds `groups`.
  */
private final class SegmentReaderFactory(pushed: SegmentSource.Pushed, schema: StructType,
                                         groups: Option[GroupTable], points: Boolean)
    extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] = {
    val files = partition.asInstanceOf[SegmentFilesPartition].files
    val rowsOf: (SegmentRecord, String) => Iterator[InternalRow] = groups match {
      case None              => (s, _) => Iterator.single(SegmentSource.toRow(s))
      case Some(g) if points => new MemberRows(g, schema).points
      case Some(g)           => new MemberRows(g, schema).of
    }
    val rows: Iterator[InternalRow] = files.iterator.flatMap { file =>
      val segments = try {
        val bytes = Files.readAllBytes(Paths.get(file))
        if (pushed.matchesFile(SegmentCodec.stats(bytes))) SegmentCodec.decode(bytes) else Nil
      } catch {
        case NonFatal(e) => throw new IOException(s"segment file $file cannot be read: ${e.getMessage}", e)
      }
      segments.iterator.filter(pushed.matchesRow).flatMap(rowsOf(_, file))
    }
    new PartitionReader[InternalRow] {
      private var cur: InternalRow = _
      override def next(): Boolean = { if (rows.hasNext) { cur = rows.next(); true } else false }
      override def get(): InternalRow = cur
      override def close(): Unit = ()
    }
  }
}

/** The Segment View's explode, and the Data Point View's, for one reader: a
  * segment becomes the rows of each member of its group that the Gaps
  * bitmask marks present, in sorted-tid order. A group's dimension values
  * become `UTF8String`s once per reader. `schema` is the view's.
  */
private final class MemberRows(groups: GroupTable, schema: StructType) {
  private final class Members(val tids: Array[Int], val scalings: Array[Double],
                              val dims: Array[Array[UTF8String]])

  private val bySlot = new Array[Members](groups.size)

  private def members(gid: Int, file: String): Members = {
    val g = groups.slot(gid)
    if (g < 0) throw new IllegalStateException(
      s"segment file $file holds gid $gid, which is not a group of the catalog")
    if (bySlot(g) == null)
      bySlot(g) = new Members(groups.tids(g), groups.scalings(g), groups.dims(g).map(_.map(UTF8String.fromString)))
    bySlot(g)
  }

  def of(s: SegmentRecord, file: String): Iterator[InternalRow] = {
    val m       = members(s.gid, file)
    val present = m.tids.indices.filter(i => (s.gaps & (1L << i)) == 0)
    present.iterator.zipWithIndex.map { case (i, sidx) =>
      new GenericInternalRow(Array[Any](m.tids(i), s.gid, s.startTime, s.endTime, s.si, s.mid,
        s.params, s.gaps, sidx, present.length, m.scalings(i)) ++ m.dims(i))
    }
  }

  /** The reader's one Data Point View row, set in place (its typed fields do
    * not box) for each point: the scan copies it before it asks for the next.
    */
  private lazy val point = new SpecificInternalRow(schema)

  /** The segment decoded once; each present member's points in time order. */
  def points(s: SegmentRecord, file: String): Iterator[InternalRow] = {
    val m       = members(s.gid, file)
    val present = m.tids.indices.filter(i => (s.gaps & (1L << i)) == 0)
    val n       = present.length
    val len     = ((s.endTime - s.startTime) / s.si).toInt + 1
    val decoded = ModelType.byMid(s.mid).decode(s.params, n, len)
    present.iterator.zipWithIndex.flatMap { case (i, sidx) =>
      point.setInt(0, m.tids(i))
      m.dims(i).indices.foreach(d => point.update(3 + d, m.dims(i)(d)))
      var t = -1
      Iterator.fill(len) {
        t += 1
        point.setLong(1, s.startTime + t.toLong * s.si)
        point.setFloat(2, (decoded(t * n + sidx) * m.scalings(i)).toFloat)
        point
      }
    }
  }
}
