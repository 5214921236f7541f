package repro

import java.nio.file.Files

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.bench.Stores
import repro.core.{Catalog, ModelarDB}
import repro.core.Types.SegmentRecord
import repro.core.golemm.GolemmConfig
import repro.core.grouping.Correlation
import repro.core.storage.{SegmentCodec, SegmentSource}
import repro.data.TimeSeriesGen

/** Shared helper for Spark integration tests: build a small ModelarDB+ store
  * from a generated data set and hand back everything a test needs.
  */
object TestStore {

  final case class Built(
      cfg: ModelarDB.Config,
      catalog: Catalog,
      stats: ModelarDB.IngestStats,
      dataset: TimeSeriesGen.Dataset,
  )

  /** Ingest `dataset` with the given clauses and GOLEMM config. */
  def build(
      spark: SparkSession,
      dataset: TimeSeriesGen.Dataset,
      clauses: Seq[Correlation],
      golemm: GolemmConfig = GolemmConfig(epsilonPct = 0.0),
  ): Built = {
    val cfg   = ModelarDB.Config(storePath = Stores.tmpDir("mdb-store"), golemm = golemm)
    val setup = ModelarDB.setup(spark, cfg, dataset.series, dataset.dims, clauses)
    val stats = ModelarDB.ingest(spark, cfg, setup, dataset.points)
    Built(cfg, setup.catalog, stats, dataset)
  }

  /** Every segment the store at `path` holds, decoded from its files without
    * the scan: the reference that checks what the views read.
    */
  def segments(path: String): Seq[SegmentRecord] =
    SegmentSource.listFiles(path).flatMap(f => SegmentCodec.decode(Files.readAllBytes(f.toPath)))

  /** The raw points with `value` cast to double — the canonical comparison
    * input for the DuckDB oracle (exact, order-independent sums because
    * generated values are multiples of 2⁻¹⁰).
    */
  def rawDouble(ds: TimeSeriesGen.Dataset): DataFrame =
    ds.points.select(col("tid"), col("ts"), col("value").cast("double").as("value"))
}
