package repro.bench

import java.nio.file.{Files, Path}
import java.util.Comparator

import scala.collection.mutable.ArrayBuffer
import scala.util.Try

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.baselines.RawStore
import repro.core.{Catalog, ModelarDB}
import repro.core.golemm.GolemmConfig
import repro.core.grouping.{Correlation, Grouper}
import repro.core.model.ModelType
import repro.data.TimeSeriesGen

/** Builds and addresses the per-system stores the query experiments run
  * against (paper Section VII-A's evaluated systems).
  */
object Stores {

  /** A new temporary directory, deleted with everything under it when the
    * JVM exits.
    */
  def tmpDir(prefix: String): String = {
    val dir = Files.createTempDirectory(prefix)
    tmpDirs.synchronized(tmpDirs += dir)
    dir.toFile.getAbsolutePath
  }

  // Every directory `tmpDir` made, deleted by one shutdown hook.
  private lazy val tmpDirs: ArrayBuffer[Path] = {
    val dirs = ArrayBuffer.empty[Path]
    sys.addShutdownHook(dirs.synchronized(dirs.foreach(deleteRecursively)))
    dirs
  }

  private def deleteRecursively(dir: Path): Unit = Try {
    val paths = Files.walk(dir)
    try paths.sorted(Comparator.reverseOrder[Path]()).forEach(p => Files.deleteIfExists(p))
    finally paths.close()
  }

  /** The paper's evaluated ModelarDB variants (Section VII-A): best manual
    * grouping (+GB), automatic grouping (+GA), grouping disabled (−G) and the
    * MDB v1 baseline (PMC-MR, single series, no dynamic splitting).
    */
  def mdbVariants(datasetName: String, eps: Double): Seq[(String, Seq[Correlation], GolemmConfig)] = {
    val gb: Seq[Correlation] = datasetName match {
      case "EP" => Seq(Correlation.And(Seq(
        Correlation.Lca("Production", 0), Correlation.Lca("Measure", 1))))
      case "EF" => Seq(Correlation.And(Seq(
        Correlation.Lca("Location", 2), Correlation.Lca("Measure", 0))))
      case _    => Seq(Correlation.Auto()) // HD: auto beat manual in the paper
    }
    Seq(
      ("MDB+ +GB", gb, GolemmConfig(epsilonPct = eps)),
      ("MDB+ +GA", Seq(Correlation.Auto()), GolemmConfig(epsilonPct = eps)),
      ("MDB+ -G", Nil, GolemmConfig(epsilonPct = eps)),
      ("MDB", Nil, GolemmConfig(modelTypes = ModelType.mdbV1List, epsilonPct = eps,
                                dynamicSplitting = false)),
    )
  }

  /** Dimension columns appended to data points "from an in-memory cache" for
    * the industry formats (paper Section VII-C), via a broadcast-free map
    * lookup on tid.
    */
  def withDims(points: DataFrame, catalog: Catalog): DataFrame = {
    val dimCols = catalog.dimColumns
    if (dimCols.isEmpty) points
    else {
      val values = catalog.series.map(s => s.tid -> catalog.dimValues(s.tid).toArray).toMap
      val lookup = udf { (tid: Int) => values(tid) }
      val withArr = points.withColumn("_d", lookup(col("tid")))
      dimCols.zipWithIndex.foldLeft(withArr) { case (df, ((name, _, _), i)) =>
        df.withColumn(name, col("_d").getItem(i))
      }.drop("_d")
    }
  }

  /** A built ModelarDB+ store ready for querying. */
  final case class Mdb(name: String, cfg: ModelarDB.Config, setup: ModelarDB.Setup,
                       stats: ModelarDB.IngestStats) {
    def catalog: Catalog = setup.catalog
  }

  def buildMdb(spark: SparkSession, ds: TimeSeriesGen.Dataset, name: String,
               clauses: Seq[Correlation], golemm: GolemmConfig,
               numPartitions: Int = 0): (Mdb, Double) = {
    val cfg = ModelarDB.Config(storePath = tmpDir("mdb"), golemm = golemm,
                               numPartitions = numPartitions)
    val setup = ModelarDB.setup(spark, cfg, ds.series, ds.dims, clauses)
    val (stats, seconds) = BenchUtil.timed(ModelarDB.ingest(spark, cfg, setup, ds.points))
    (Mdb(name, cfg, setup, stats), seconds)
  }

  /** Build a store from pre-computed groups (the value-based grouping
    * baseline of Section VII-C hands groups in directly).
    */
  def buildMdbWithGroups(spark: SparkSession, ds: TimeSeriesGen.Dataset, name: String,
                         groups: IndexedSeq[repro.core.Types.Group],
                         golemm: GolemmConfig): (Mdb, Double) = {
    val cfg = ModelarDB.Config(storePath = tmpDir("mdb"), golemm = golemm)
    val catalog = Catalog(ds.series, groups, ds.dims)
    val n = spark.sparkContext.defaultParallelism
    val assignment = repro.core.grouping.Partitioner.partition(
      groups, n, tid => catalog.byTid(tid).si)
    val setup = ModelarDB.Setup(catalog, assignment, n, 0L)
    val (stats, seconds) = BenchUtil.timed(ModelarDB.ingest(spark, cfg, setup, ds.points))
    (Mdb(name, cfg, setup, stats), seconds)
  }

  /** A built industry-baseline store ready for querying. */
  final case class Raw(store: RawStore, path: String, bytes: Long) {
    def name: String = store.name

    def points(spark: SparkSession, tids: Option[Seq[Int]] = None): DataFrame =
      store.read(spark, path, tids)
  }

  /** Write the data set into `store`, with the catalog's dimension columns
    * if the store carries them.
    */
  def buildRaw(ds: TimeSeriesGen.Dataset, catalog: Catalog, store: RawStore): (Raw, Double) = {
    val path   = tmpDir("raw") + "/data"
    val points = if (store.carriesDims) withDims(ds.points, catalog) else ds.points
    val (bytes, seconds) = BenchUtil.timed(store.write(points, path))
    (Raw(store, path, bytes), seconds)
  }

  /** A catalog with no grouping — used to attach dims to baseline stores. */
  def flatCatalog(ds: TimeSeriesGen.Dataset): Catalog =
    Catalog(ds.series, Grouper.group(ds.series, ds.dims, Nil).groups, ds.dims)
}
