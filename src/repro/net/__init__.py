"""Networking substrate: wire codec, framed RPC over asyncio TCP, and a
deterministic discrete-event network simulator."""

from .codec import CodecError, KeyList, RowBlock, decode, decode_prefix, encode
from .protocol import (
    ERR,
    METHODS,
    OK,
    FrameBuffer,
    ProtocolError,
    decode_batch_args,
    decode_message,
    encode_batch_args,
    encode_request,
    encode_response,
    frame,
    parse_request,
    parse_response,
)
from .protocol import PUSH, encode_push, parse_push
from .rpc_client import BlockingRpcClient, RpcClient, RpcError
from .rpc_server import RpcServer, ThreadedRpcService
from .simnet import SimError, SimHost, SimNetwork

__all__ = [
    "BlockingRpcClient",
    "CodecError",
    "ERR",
    "FrameBuffer",
    "KeyList",
    "METHODS",
    "OK",
    "PUSH",
    "ProtocolError",
    "RowBlock",
    "RpcClient",
    "RpcError",
    "RpcServer",
    "ThreadedRpcService",
    "SimError",
    "SimHost",
    "SimNetwork",
    "decode",
    "decode_batch_args",
    "decode_message",
    "decode_prefix",
    "encode",
    "encode_batch_args",
    "encode_push",
    "encode_request",
    "encode_response",
    "frame",
    "parse_push",
    "parse_request",
    "parse_response",
]
