"""In-memory message brokering substrate (Kafka-equivalent).

Pilot-Edge moves data between continuum layers through a pilot-managed
broker. The paper uses Apache Kafka with one partition per edge device;
this package provides a from-scratch broker with the same semantics the
paper's evaluation depends on:

- topics split into append-only, offset-addressed partitions,
- producers that send bytes to an explicit partition (or by key hash),
  idempotent when they retry,
- consumers organised in consumer groups with range-assigned partitions,
  eager rebalancing and committed offsets,
- broker-side metrics (bytes/records in and out per topic) so broker
  throughput can be observed independently from consumer throughput —
  the Fig. 2 observation that "the broker can process more data than the
  consuming processing tasks".

A lightweight MQTT-style plugin (:class:`MqttStyleBroker`) demonstrates
the paper's broker plugin mechanism for low-power environments.
"""

from repro.broker.errors import (
    BrokerError,
    BrokerTimeoutError,
    DisconnectedError,
    FatalError,
    NotEnoughReplicasError,
    NotOwnerError,
    OffsetOutOfRangeError,
    OutOfOrderSequenceError,
    ProducerFencedError,
    RebalanceInProgressError,
    RetriableError,
    StaleLeaderEpochError,
    UnknownMemberError,
    UnknownPartitionError,
    UnknownTopicError,
    is_retriable,
)
from repro.broker.message import BatchMetadata, Record, RecordMetadata
from repro.broker.partition import PartitionLog
from repro.broker.topic import Topic
from repro.broker.broker import Broker
from repro.broker.producer import Producer
from repro.broker.consumer import Consumer
from repro.broker.group import GroupCoordinator
from repro.broker.plugins import broker_plugin, create_broker, available_plugins
from repro.broker.mqtt import MqttStyleBroker
from repro.broker.remote import (
    BrokerServer,
    RemoteBroker,
    RemoteBrokerError,
    RemoteFatalError,
    RemoteRetriableError,
)
from repro.broker.metadata import (
    ClusterMetadata,
    coordinator_shard,
    replica_indices,
    shard_for_partition,
)
from repro.broker.shard import ShardBroker
from repro.broker.supervisor import ClusterBrokerSupervisor
from repro.broker.cluster import ClusterBroker, connect_bootstrap
from repro.broker.storage import (
    GroupCommitFlusher,
    LogStorageManager,
    SegmentStore,
    StorageConfig,
    StorageError,
)

__all__ = [
    "ClusterBroker",
    "ClusterBrokerSupervisor",
    "ClusterMetadata",
    "NotEnoughReplicasError",
    "NotOwnerError",
    "ShardBroker",
    "StaleLeaderEpochError",
    "connect_bootstrap",
    "coordinator_shard",
    "replica_indices",
    "shard_for_partition",
    "BrokerServer",
    "RemoteBroker",
    "RemoteBrokerError",
    "RemoteRetriableError",
    "RemoteFatalError",
    "BrokerError",
    "RetriableError",
    "FatalError",
    "BrokerTimeoutError",
    "DisconnectedError",
    "ProducerFencedError",
    "OutOfOrderSequenceError",
    "UnknownMemberError",
    "is_retriable",
    "UnknownTopicError",
    "UnknownPartitionError",
    "OffsetOutOfRangeError",
    "RebalanceInProgressError",
    "Record",
    "RecordMetadata",
    "BatchMetadata",
    "PartitionLog",
    "Topic",
    "Broker",
    "Producer",
    "Consumer",
    "GroupCoordinator",
    "broker_plugin",
    "create_broker",
    "available_plugins",
    "MqttStyleBroker",
    "GroupCommitFlusher",
    "LogStorageManager",
    "SegmentStore",
    "StorageConfig",
    "StorageError",
]
