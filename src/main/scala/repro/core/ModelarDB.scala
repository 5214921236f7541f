package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{FloatType, IntegerType, LongType}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import repro.core.Types._
import repro.core.golemm.{Compressor, GolemmConfig}
import repro.core.grouping._
import repro.core.storage.SegmentSource
import repro.core.views.{TimeCube, Udafs}

/** End-to-end ModelarDB+ on Spark: static grouping and partitioning on the
  * driver (the paper's master, Figure 3a), GOLEMM compression of each group
  * inside one task (Figure 3b), segment writes straight to the group store
  * through its one write, and the two query views.
  */
object ModelarDB {

  /** System configuration (paper Section VII-A defaults). */
  final case class Config(
      storePath: String,
      golemm: GolemmConfig = GolemmConfig(),
      numPartitions: Int = 0,      // 0 = spark default parallelism
  )

  /** Result of the static grouping/partitioning phase. */
  final case class Setup(
      catalog: Catalog,
      partitionOf: Map[Int, Int], // gid -> partition
      numPartitions: Int,
      groupingNanos: Long,
  )

  /** Aggregated ingestion statistics for the evaluation. */
  final case class IngestStats(
      points: Long,
      segments: Long,
      paramBytes: Long,
      perMid: Map[Int, Long],
      splits: Int,
      merges: Int,
      splitMergeNanos: Long,
      compressNanos: Long,
      wallNanos: Long,
      storeBytes: Long,
  )

  /** Group and partition the series before ingestion begins (Figure 8):
    * apply the correlation clauses (Algorithm 1), resolve scaling rules, and
    * balance groups over partitions by data points per minute.
    */
  def setup(
      spark: SparkSession,
      cfg: Config,
      series: Seq[TimeSeriesMeta],
      dims: Seq[DimensionSpec],
      clauses: Seq[Correlation],
      scalingRules: Seq[ScalingRule] = Nil,
  ): Setup = {
    val scaled = series.map { ts =>
      if (scalingRules.isEmpty) ts
      else ts.copy(scaling = Primitives.scalingOf(ts, scalingRules, dims))
    }
    val grouping = Grouper.group(scaled, dims, clauses)
    val n = if (cfg.numPartitions > 0) cfg.numPartitions
            else spark.sparkContext.defaultParallelism
    val catalog = Catalog(scaled.toIndexedSeq, grouping.groups, dims)
    val assignment = Partitioner.partition(grouping.groups, n, tid => catalog.byTid(tid).si)
    Setup(catalog, assignment, n, grouping.nanos)
  }

  /** Ingest a batch of raw data points `(tid, ts, value)` into the store.
    *
    * One ingest runs one Spark job of two stages. Each group's points land
    * in one task (the paper assigns a group to one worker to avoid shuffling
    * at query time): the shuffle's partitioner is the static plan of
    * [[setup]], so planned partition p runs as task p, and each partition
    * gets its own core and file. The shuffle moves columnar chunks, not
    * points: each map task reads its input rows as they arrive, appends each
    * point to its group's buffers and emits one `GroupChunk` per group (more
    * for a group with over `Compressor.ChunkPoints` points), keyed and sorted
    * by gid. A task then gathers each group's chunks, aligns them into one
    * flat buffer of ticks and compresses them with GOLEMM, reading the
    * group's members, scalings and SI from a [[GroupTable]] that the driver
    * builds once and the tasks get instead of the catalog. The segments go
    * directly to storage (Table I's bulk-loading path) through
    * [[SegmentSource.append]]: each task writes one file of its segments,
    * and the files become visible only once the whole ingest succeeds.
    * A point with a null field, points of a tid that is not in the catalog,
    * duplicate `(tid, ts)` points and a group spanning 2^57 ms or more fail
    * it.
    * The first ingest writes `setup.catalog` into the store for the views to
    * read, and removes it again if it fails; one with another catalog fails
    * before any task runs.
    */
  def ingest(spark: SparkSession, cfg: Config, setup: Setup, points: DataFrame): IngestStats = {
    val t0      = System.nanoTime()
    val catalog = setup.catalog
    val created = SegmentSource.storedCatalog(cfg.storePath) match {
      case Some(stored) => requireSame(cfg.storePath, stored, catalog); false
      case None         => SegmentSource.writeCatalog(cfg.storePath, catalog); true
    }
    val golemm  = cfg.golemm
    val chunker = new Compressor.Chunker(catalog.groups)
    val groups  = GroupTable(catalog, withDims = false)

    val chunks = points
      .select(col("tid").cast(IntegerType), col("ts").cast(LongType), col("value").cast(FloatType))
      .queryExecution.toRdd
      .mapPartitions(rows => chunker.chunks(rows).map(c => c.gid -> c))
      .repartitionAndSortWithinPartitions(new GroupPartitioner(setup.partitionOf, setup.numPartitions))

    val groupStats = spark.sparkContext.collectionAccumulator[Compressor.GroupStats]("groupStats")
    val segments = chunks.mapPartitions { rows =>
      val it = rows.buffered
      Iterator.continually(()).takeWhile(_ => it.hasNext).flatMap { _ =>
        val gid      = it.head._1
        val group    = ArrayBuffer.empty[GroupChunk]
        while (it.hasNext && it.head._1 == gid) group += it.next()._2
        val g        = groups.slot(gid)
        val ticks    = Compressor.ticksFromChunks(groups.tids(g), group.toSeq, gid)
        val (segs, st) = Compressor.compressGroup(gid, groups.tids(g).length, groups.sis(g),
                                                  groups.scalings(g), ticks, golemm)
        groupStats.add(st)
        segs
      }
    }
    try SegmentSource.append(cfg.storePath, segments)
    catch { case e: Throwable if created => SegmentSource.deleteCatalog(cfg.storePath); throw e }

    val agg = groupStats.value.asScala.foldLeft(Compressor.GroupStats.zero)(_ merge _)
    IngestStats(
      points = agg.points,
      segments = agg.segments,
      paramBytes = agg.paramBytes,
      perMid = agg.perMid,
      splits = agg.splits,
      merges = agg.merges,
      splitMergeNanos = agg.splitMergeNanos,
      compressNanos = agg.totalNanos,
      wallNanos = System.nanoTime() - t0,
      storeBytes = SegmentSource.storeBytes(cfg.storePath),
    )
  }

  /** Fail unless `catalog` holds what `stored`, the store's, holds, naming the
    * lowest gid, else tid, whose group or series differs.
    */
  private def requireSame(path: String, stored: Catalog, catalog: Catalog): Unit = {
    def first[V](what: String, a: Map[Int, V], b: Map[Int, V]) =
      (a.keySet ++ b.keySet).toSeq.sorted.find(k => a.get(k) != b.get(k)).map(k => s"$what $k")
    first("group", catalog.byGid, stored.byGid).orElse(first("series", catalog.byTid, stored.byTid))
      .orElse(Option.when(catalog.dims != stored.dims)("the dimensions"))
      .foreach(d => throw new IllegalArgumentException(s"store $path holds another catalog: $d differs"))
  }

  /** The Segment View over this store (Section VI-A), optionally
    * restricted to the series `tids` and to the segments overlapping
    * `[from, to]`; both are plain filters that the store pushes down.
    */
  def segmentView(spark: SparkSession, cfg: Config, catalog: Catalog,
                  tids: Option[Seq[Int]] = None,
                  timeRange: Option[(Long, Long)] = None): DataFrame = {
    val sv = view(spark, cfg, catalog, SegmentSource.ViewFormatName, tids)
    timeRange.fold(sv) { case (from, to) => sv.filter(col("end_time") >= from && col("start_time") <= to) }
  }

  /** The Data Point View over this store (Section VI-A), read from the
    * store's scan, optionally restricted to the series `tids` and to the
    * points in `[from, to]`; both are plain filters that the store pushes
    * down, `ts` as the bounds of the segments overlapping the range.
    */
  def dataPointView(spark: SparkSession, cfg: Config, catalog: Catalog,
                    tids: Option[Seq[Int]] = None,
                    timeRange: Option[(Long, Long)] = None): DataFrame = {
    val dpv = view(spark, cfg, catalog, SegmentSource.PointsFormatName, tids)
    timeRange.fold(dpv) { case (from, to) => dpv.filter(col("ts") >= from && col("ts") <= to) }
  }

  /** The store's scan in the view form `format`, once the store is known to
    * hold `catalog`, restricted to the series `tids` if given.
    */
  private def view(spark: SparkSession, cfg: Config, catalog: Catalog, format: String,
                   tids: Option[Seq[Int]]): DataFrame = {
    requireSame(cfg.storePath, SegmentSource.catalogOf(cfg.storePath), catalog)
    val df = spark.read.format(format).load(cfg.storePath)
    tids.fold(df)(ts => df.filter(col("tid").isin(ts: _*)))
  }

  /** Register `segment_view` and `datapoint_view` temp views plus the `*_S`
    * UDAFs so plain SQL can run against the store.
    */
  def registerViews(spark: SparkSession, cfg: Config, catalog: Catalog): Unit = {
    Udafs.register(spark)
    segmentView(spark, cfg, catalog).createOrReplaceTempView("segment_view")
    dataPointView(spark, cfg, catalog).createOrReplaceTempView("datapoint_view")
  }

  /** `CUBE_<agg>_<interval>` on this store (Section VI-C). */
  def timeCube(spark: SparkSession, cfg: Config, catalog: Catalog,
               interval: TimeCube.Interval, agg: String,
               groupCols: Seq[String] = Seq("tid")): DataFrame =
    TimeCube.cube(segmentView(spark, cfg, catalog), interval, agg, groupCols)
}
